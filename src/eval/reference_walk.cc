#include "eval/reference_walk.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "bound/bounds.h"
#include "common/math_utils.h"

namespace dangoron {

Result<CorrelationMatrixSeries> ReferenceWalk(const DangoronOptions& options,
                                              const BasicWindowIndex& index,
                                              const SlidingQuery& query,
                                              EngineStats* stats) {
  const int64_t b = index.basic_window();
  RETURN_IF_ERROR(query.Validate(index.data().length()));
  if (query.start % b != 0 || query.window % b != 0 || query.step % b != 0) {
    return Status::InvalidArgument(
        "ReferenceWalk: query geometry off the basic-window grid");
  }
  const int64_t n = index.num_series();
  const int64_t num_windows = query.NumWindows();
  const int64_t base_w0 = query.start / b;
  const int64_t ns = query.window / b;
  const int64_t m = query.step / b;
  const double beta = query.threshold;
  const double window_count = static_cast<double>(query.window);
  const double inv_count = 1.0 / window_count;

  // Per window: each series' range sum and reciprocal centered root sum of
  // squares (0 for a degenerate series), [k * n + s].
  std::vector<double> sums(static_cast<size_t>(num_windows * n));
  std::vector<double> invs(sums.size());
  for (int64_t k = 0; k < num_windows; ++k) {
    const int64_t w0 = base_w0 + k * m;
    double* sum = sums.data() + k * n;
    double* inv = invs.data() + k * n;
    for (int64_t s = 0; s < n; ++s) {
      sum[s] = index.SumRange(s, w0, w0 + ns);
      const double css =
          index.SumSqRange(s, w0, w0 + ns) - sum[s] * sum[s] / window_count;
      inv[s] = css > kMomentVarianceEps ? 1.0 / std::sqrt(css) : 0.0;
    }
  }

  const TemporalBound bound(&index, ns, m);
  const auto [pair_lo, pair_hi] = query.PairRange(n * (n - 1) / 2);
  const int64_t omc_hi = base_w0 + (num_windows - 1) * m;
  CorrelationMatrixSeries series(query, n);
  EngineStats counts;
  int64_t i = 0;
  int64_t j = 0;
  if (pair_lo < pair_hi) {
    BasicWindowIndex::PairFromId(pair_lo, n, &i, &j);
  }
  for (int64_t pair = pair_lo; pair < pair_hi; ++pair) {
    if (pair + kJumpPrefetchPairs < pair_hi) {
      index.PrefetchPairRows(pair + kJumpPrefetchPairs, base_w0, omc_hi + ns,
                             omc_hi);
    }
    for (int64_t k = 0; k < num_windows; ++k) {
      const int64_t w0 = base_w0 + k * m;
      const double* sum = sums.data() + k * n;
      const double* inv = invs.data() + k * n;
      const double cov =
          index.DotRange(pair, w0, w0 + ns) - sum[i] * sum[j] * inv_count;
      const double corr = ClampCorrelation(cov * inv[i] * inv[j]);
      ++counts.cells_evaluated;
      const bool edge = query.IsEdge(corr);
      const Edge found{static_cast<int32_t>(i), static_cast<int32_t>(j),
                       corr};
      if (edge) {
        series.MutableWindow(k)->push_back(found);
      }
      if (!options.enable_jumping ||
          (edge && !options.enable_above_jumping)) {
        continue;
      }
      int64_t max_steps = num_windows - 1 - k;
      if (options.max_jump_steps > 0) {
        max_steps = std::min(max_steps, options.max_jump_steps);
      }
      // A non-edge skips while it provably stays below beta (inside
      // (-beta, beta) in absolute mode); an edge while it stays on its
      // side, re-reporting its anchor value in the skipped windows.
      int64_t skip = 0;
      if (!edge) {
        skip = query.absolute ? bound.MaxSkippableWithin(pair, w0, corr, -beta,
                                                         beta, max_steps)
                              : bound.MaxSkippableBelow(pair, w0, corr, beta,
                                                        max_steps);
      } else if (corr >= beta) {
        skip = bound.MaxSkippableAbove(pair, w0, corr, beta, max_steps);
      } else {
        skip = bound.MaxSkippableBelow(pair, w0, corr, -beta, max_steps);
      }
      if (skip > 0) {
        ++counts.jumps;
        counts.cells_jumped += skip;
        for (int64_t d = 1; edge && d <= skip; ++d) {
          series.MutableWindow(k + d)->push_back(found);
        }
        k += skip;
      }
    }
    ++j;
    if (j >= n) {
      ++i;
      j = i + 1;
    }
  }
  if (stats != nullptr) {
    *stats = counts;
  }
  return series;
}

}  // namespace dangoron
