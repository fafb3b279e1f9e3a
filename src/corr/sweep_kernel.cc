#include "corr/sweep_kernel.h"

#include <algorithm>

#include "common/math_utils.h"

namespace dangoron {

namespace {

// 8-pair groups the banded sweep prefetches ahead (SweepRowRunBand). A
// group's eight dot-prefix rows sit a whole sketch row (~3 KB at a year of
// basic windows) apart, past what the hardware prefetchers follow, so an
// unprefetched sweep waits on memory for each row's band lines in turn.
// Measured on the climate_cold geometry (N = 256, 336 windows of 30 basic
// windows sliding by one, swept in 16-window passes, one thread on a 4-vCPU
// Xeon, -march=cooperlake, edges unchanged): the sweep took 0.70-0.76x the
// unprefetched time at one group ahead; two to four groups ahead were
// within the host's noise of one.
constexpr int64_t kSweepPrefetchGroups = 1;

// One fixed-i run of the banded sweep: pairs (i, j) for j in
// [j_begin, j_end), whose pair ids — and dot-prefix rows — advance
// contiguously from `pair_begin`; the window loop runs *inside* each 8-pair
// group so the group's prefix cache lines serve the whole band. The vector
// body and the scalar tail execute the exact per-lane operation sequence of
// the scalar cell of dangoron_engine.cc's tile walk:
//
//   cov  = (prefix[hi] - prefix[lo]) - sum_i * sum_j * inv_count
//   corr = ClampCorrelation(cov * inv_css_i * inv_css_j)
//
// so the sweep and the scalar walks emit bit-identical edges (same shapes,
// same FMA-contraction decisions); the sweep kernel tests enforce that. The
// threshold compare is branch-free per 8-lane group: survivors are appended
// only when the group mask is non-zero, which on the sparse networks the
// thresholds of interest produce skips the append branch almost always.
// Each group first prefetches the band's lo and hi slots of the rows
// kSweepPrefetchGroups groups ahead, never past the run's end.
template <bool kAbsolute>
void SweepRowRunBand(const SweepView& v, int64_t base_w0, int64_t ns,
                     int64_t m, int64_t k_begin, int64_t k_end, int64_t i,
                     int64_t j_begin, int64_t j_end, int64_t pair_begin,
                     std::vector<Edge>* out_windows) {
  const int64_t n = v.num_series;
  const int64_t stride = v.row_stride;
  const double beta = v.threshold;
  const double* rows = v.dot_prefix + (pair_begin - v.first_pair) * stride;

  const Vec8 vic = SplatVec8(v.inv_count);
  const Vec8 vone = SplatVec8(1.0);
  const Vec8 vneg_one = SplatVec8(-1.0);
  const Vec8 vbeta = SplatVec8(beta);
  const Vec8 vneg_beta = SplatVec8(-beta);

  // The band's slots: window k reads lo = base_w0 + k*m and hi = lo + ns.
  // Prefetching every m-th slot touches each line they sit in when windows
  // are a line or more apart; closer, every 8th slot covers the range.
  const int64_t lo_first = base_w0 + k_begin * m;
  const int64_t lo_last = base_w0 + (k_end - 1) * m;
  const int64_t slot_step = std::max<int64_t>(m, 8);
  constexpr int64_t kAhead = 8 * kSweepPrefetchGroups;

  int64_t j = j_begin;
  for (; j + 8 <= j_end; j += 8, rows += 8 * stride) {
    const int64_t ahead_end = std::min(j + kAhead + 8, j_end);
    for (int64_t a = j + kAhead; a < ahead_end; ++a) {
      const double* ahead = rows + (a - j) * stride;
      PrefetchRowSlots(ahead, lo_first, lo_last, slot_step);
      PrefetchRowSlots(ahead, lo_first + ns, lo_last + ns, slot_step);
    }
    for (int64_t k = k_begin; k < k_end; ++k) {
      const int64_t lo = base_w0 + k * m;
      const int64_t hi = lo + ns;
      const double* sums = v.range_sum + k * n;
      const double* invs = v.range_inv_css + k * n;
      // The two prefix loads per pair are strided (one dot-prefix row per
      // pair) but L1-hot after the band's first window; everything after is
      // contiguous vector arithmetic.
      double lo_slots[8];
      double hi_slots[8];
      const double* row = rows;
      for (int l = 0; l < 8; ++l, row += stride) {
        lo_slots[l] = row[lo];
        hi_slots[l] = row[hi];
      }
      const Vec8 dot = LoadVec8(hi_slots) - LoadVec8(lo_slots);
      const Vec8 sj = LoadVec8(sums + j);
      const Vec8 invj = LoadVec8(invs + j);
      const Vec8 cov = dot - SplatVec8(sums[i]) * sj * vic;
      Vec8 corr = cov * SplatVec8(invs[i]) * invj;
      corr = corr < vneg_one ? vneg_one : (corr > vone ? vone : corr);

      auto mask = corr >= vbeta;
      if constexpr (kAbsolute) {
        mask |= corr <= vneg_beta;
      }
      int64_t any = 0;
      for (int l = 0; l < 8; ++l) {
        any |= mask[l];
      }
      if (any != 0) {
        std::vector<Edge>* out = out_windows + (k - k_begin);
        for (int l = 0; l < 8; ++l) {
          if (mask[l] != 0) {
            out->push_back(Edge{static_cast<int32_t>(i),
                                static_cast<int32_t>(j + l), corr[l]});
          }
        }
      }
    }
  }

  // Scalar tail of the run (and whole runs shorter than one vector): the
  // same operation sequence, lane by lane.
  for (; j < j_end; ++j, rows += stride) {
    for (int64_t k = k_begin; k < k_end; ++k) {
      const int64_t lo = base_w0 + k * m;
      const int64_t hi = lo + ns;
      const double* sums = v.range_sum + k * n;
      const double* invs = v.range_inv_css + k * n;
      const double cov =
          (rows[hi] - rows[lo]) - sums[i] * sums[j] * v.inv_count;
      const double corr = ClampCorrelation(cov * invs[i] * invs[j]);
      const bool is_edge =
          kAbsolute ? (corr <= -beta || corr >= beta) : corr >= beta;
      if (is_edge) {
        out_windows[k - k_begin].push_back(
            Edge{static_cast<int32_t>(i), static_cast<int32_t>(j), corr});
      }
    }
  }
}

}  // namespace

void SweepWindowBandPairRange(const SweepView& view, int64_t base_w0,
                              int64_t ns, int64_t m, int64_t k_begin,
                              int64_t k_end, int64_t pair_begin,
                              int64_t pair_end, int64_t i0, int64_t j0,
                              std::vector<Edge>* out_windows) {
  const int64_t n = view.num_series;
  int64_t p = pair_begin;
  int64_t i = i0;
  int64_t j = j0;
  while (p < pair_end) {
    const int64_t run = std::min(n - j, pair_end - p);
    if (view.absolute) {
      SweepRowRunBand<true>(view, base_w0, ns, m, k_begin, k_end, i, j,
                            j + run, p, out_windows);
    } else {
      SweepRowRunBand<false>(view, base_w0, ns, m, k_begin, k_end, i, j,
                             j + run, p, out_windows);
    }
    p += run;
    j += run;
    if (j >= n) {
      ++i;
      j = i + 1;
    }
  }
}

void SweepWindowBandRing(const SweepView& view, int64_t slot_offset,
                         int64_t base_w0, int64_t ns, int64_t m,
                         int64_t k_begin, int64_t k_end, int64_t pair_begin,
                         int64_t pair_end, int64_t i0, int64_t j0,
                         std::vector<Edge>* out_windows) {
  const int64_t ring = view.row_stride;
  auto lo_wraps = [&](int64_t k) {
    return (base_w0 + k * m + slot_offset) / ring;
  };
  auto hi_wraps = [&](int64_t k) {
    return (base_w0 + k * m + ns + slot_offset) / ring;
  };
  int64_t k = k_begin;
  while (k < k_end) {
    const int64_t a = lo_wraps(k);
    const int64_t c = hi_wraps(k);
    int64_t piece_end = k + 1;
    while (piece_end < k_end && lo_wraps(piece_end) == a &&
           hi_wraps(piece_end) == c) {
      ++piece_end;
    }
    SweepWindowBandPairRange(view, base_w0 + slot_offset - a * ring,
                             ns - (c - a) * ring, m, k, piece_end, pair_begin,
                             pair_end, i0, j0, out_windows + (k - k_begin));
    k = piece_end;
  }
}

}  // namespace dangoron
