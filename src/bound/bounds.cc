#include "bound/bounds.h"

namespace dangoron {

int64_t TemporalBound::MaxSkippableBelow(int64_t pair_id, int64_t w0,
                                         double corr, double beta,
                                         int64_t max_steps) const {
  if (max_steps <= 0 || UpperBound(pair_id, w0, corr, 1) >= beta) {
    return 0;
  }
  // Invariant: UpperBound(lo) < beta <= UpperBound(hi) (hi may be
  // max_steps + 1 meaning "all steps skippable").
  int64_t lo = 1;
  int64_t hi = max_steps + 1;
  while (lo + 1 < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (UpperBound(pair_id, w0, corr, mid) < beta) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int64_t TemporalBound::MaxSkippableAbove(int64_t pair_id, int64_t w0,
                                         double corr, double beta,
                                         int64_t max_steps) const {
  if (max_steps <= 0 || LowerBound(pair_id, w0, corr, 1) < beta) {
    return 0;
  }
  // LowerBound is monotone non-increasing in j (each step subtracts a
  // non-negative amount), so the same binary search applies mirrored.
  int64_t lo = 1;
  int64_t hi = max_steps + 1;
  while (lo + 1 < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (LowerBound(pair_id, w0, corr, mid) >= beta) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

int64_t TemporalBound::MaxSkippableWithin(int64_t pair_id, int64_t w0,
                                          double corr, double lo, double hi,
                                          int64_t max_steps) const {
  const auto confined = [&](int64_t j) {
    return UpperBound(pair_id, w0, corr, j) < hi &&
           LowerBound(pair_id, w0, corr, j) > lo;
  };
  if (max_steps <= 0 || !confined(1)) {
    return 0;
  }
  int64_t ok = 1;
  int64_t bad = max_steps + 1;
  while (ok + 1 < bad) {
    const int64_t mid = ok + (bad - ok) / 2;
    if (confined(mid)) {
      ok = mid;
    } else {
      bad = mid;
    }
  }
  return ok;
}

}  // namespace dangoron
