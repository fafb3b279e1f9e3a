#ifndef DANGORON_BOUND_BOUNDS_H_
#define DANGORON_BOUND_BOUNDS_H_

#include <cstdint>

#include "sketch/basic_window_index.h"

namespace dangoron {

/// Temporal bounds of the paper's Equation 2 and the jump search built on
/// them (Figure 2).
///
/// Setting: the query window spans `ns` basic windows; one sliding step
/// advances by `m` basic windows. Sliding `j` steps from window `k` drops the
/// `j*m` oldest basic windows and admits `j*m` new ones. Under the paper's
/// assumption that basic windows are drawn from a common sample distribution,
/// the query-window correlation is approximately the mean of its basic-window
/// correlations, so with c_i the *departing* basic-window correlations
/// (known at window k) and every entering correlation bounded by +/-1:
///
///   upper:  Corr_{k+j} <= Corr_k + (1/ns) * sum_{departing}(1 - c_i)
///   lower:  Corr_{k+j} >= Corr_k - (1/ns) * sum_{departing}(1 + c_i)
///
/// Both sums are O(1) from the index's OneMinusCorrRange prefix
/// (sum(1 + c) = 2 * count - sum(1 - c)). The bounds are *statistical*: data
/// violating the stationarity assumption can break them, which is why
/// Dangoron's jump mode is approximate (paper: accuracy > 90%). The jump
/// search exploits that the upper bound is monotone non-decreasing in j.
class TemporalBound {
 public:
  /// `index` must outlive the bound. `ns` = basic windows per query window,
  /// `m` = basic windows per sliding step.
  TemporalBound(const BasicWindowIndex* index, int64_t ns, int64_t m)
      : index_(index), ns_(ns), m_(m) {}

  /// Eq. 2 upper bound on Corr_{k+j} given Corr_k = `corr`, where the
  /// current window starts at basic window `w0 = k*m`.
  double UpperBound(int64_t pair_id, int64_t w0, double corr,
                    int64_t j) const {
    return corr + index_->OneMinusCorrRange(pair_id, w0, w0 + j * m_) /
                      static_cast<double>(ns_);
  }

  /// Matching lower bound on Corr_{k+j}.
  double LowerBound(int64_t pair_id, int64_t w0, double corr,
                    int64_t j) const {
    const double one_minus = index_->OneMinusCorrRange(pair_id, w0, w0 + j * m_);
    const double one_plus = 2.0 * static_cast<double>(j * m_) - one_minus;
    return corr - one_plus / static_cast<double>(ns_);
  }

  /// Largest j in [1, max_steps] with UpperBound(j) < beta, i.e. the number
  /// of future windows that can be skipped as below-threshold; 0 when even
  /// the next window cannot be skipped. Binary search over the monotone
  /// prefix (O(log max_steps)).
  int64_t MaxSkippableBelow(int64_t pair_id, int64_t w0, double corr,
                            double beta, int64_t max_steps) const;

  /// Largest j in [1, max_steps] with LowerBound(j) >= beta (windows that
  /// provably — under the assumption — stay above threshold); 0 when none.
  int64_t MaxSkippableAbove(int64_t pair_id, int64_t w0, double corr,
                            double beta, int64_t max_steps) const;

  /// Largest j in [1, max_steps] with `lo < LowerBound(j)` and
  /// `UpperBound(j) < hi` — the number of windows provably confined to the
  /// open interval (lo, hi). Used by the absolute-threshold mode, where a
  /// non-edge must stay inside (-beta, beta) to be skipped. Both bounds
  /// drift monotonically, so the predicate is monotone and binary-searched.
  int64_t MaxSkippableWithin(int64_t pair_id, int64_t w0, double corr,
                             double lo, double hi, int64_t max_steps) const;

 private:
  const BasicWindowIndex* index_;
  int64_t ns_;
  int64_t m_;
};

}  // namespace dangoron

#endif  // DANGORON_BOUND_BOUNDS_H_
