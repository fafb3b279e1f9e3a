#include "corr/sweep_kernel.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_utils.h"

namespace dangoron {

namespace {

// 8-pair groups the banded sweep prefetches ahead (SweepRowRunBand). A
// group's eight dot-prefix rows sit a whole sketch row (~3 KB at a year of
// basic windows) apart, past what the hardware prefetchers follow, so an
// unprefetched sweep waits on memory for each row's band lines in turn.
// Measured on the climate_cold geometry (N = 256, 336 windows of 30 basic
// windows sliding by one, swept in 16-window passes, one thread on a 4-vCPU
// Xeon, -march=cooperlake, edges unchanged; band streams were pair-major
// then): the sweep took 0.70-0.76x the unprefetched time at one group
// ahead; two to four groups ahead were within the host's noise of one.
constexpr int64_t kSweepPrefetchGroups = 1;

// Doubles the slot-row sweep (SweepSlotRun) prefetches ahead in each of
// its two rows: 32 lines. The hardware prefetchers alone leave the sweep
// waiting on DRAM. On the climate_cold geometry (one thread, 4-vCPU Xeon,
// -march=cooperlake, thread CPU time, edges unchanged), a streamed query's
// sweep took a median 33.9 ms unprefetched and 22.8 ms at 256 doubles
// ahead, over 12 alternating rounds; 128, 512 and 1024 ahead measured
// 23.9, 22.7 and 24.4 ms.
constexpr int64_t kSlotPrefetchAhead = 256;

// The lane arithmetic of both sweep kernels: the cells (i, j..j+7) of
// window k (its moment rows `sums` / `invs`) from their 8 dot-prefix
// differences `dot`, surviving edges appended to `out`. Each lane executes
// the exact operation sequence of the scalar cell of dangoron_engine.cc's
// tile walk:
//
//   cov  = (prefix[hi] - prefix[lo]) - sum_i * sum_j * inv_count
//   corr = ClampCorrelation(cov * inv_css_i * inv_css_j)
//
// so the kernels and the scalar walks emit bit-identical edges (same
// shapes, same FMA-contraction decisions); the sweep kernel tests enforce
// that. The threshold compare is branch-free per 8-lane group: survivors
// are appended only when the group mask is non-zero, which on the sparse
// networks the thresholds of interest produce skips the append branch
// almost always.
template <bool kAbsolute>
[[gnu::always_inline]] inline void SweepLanes8(const SweepView& v, Vec8 dot,
                                               const double* sums,
                                               const double* invs, int64_t i,
                                               int64_t j,
                                               std::vector<Edge>* out) {
  const Vec8 vone = SplatVec8(1.0);
  const Vec8 vneg_one = SplatVec8(-1.0);
  const Vec8 cov =
      dot - SplatVec8(sums[i]) * LoadVec8(sums + j) * SplatVec8(v.inv_count);
  Vec8 corr = cov * SplatVec8(invs[i]) * LoadVec8(invs + j);
  corr = corr < vneg_one ? vneg_one : (corr > vone ? vone : corr);

  auto mask = corr >= SplatVec8(v.threshold);
  if constexpr (kAbsolute) {
    mask |= corr <= SplatVec8(-v.threshold);
  }
  int64_t any = 0;
  for (int l = 0; l < 8; ++l) {
    any |= mask[l];
  }
  if (any != 0) {
    for (int l = 0; l < 8; ++l) {
      if (mask[l] != 0) {
        out->push_back(Edge{static_cast<int32_t>(i),
                            static_cast<int32_t>(j + l), corr[l]});
      }
    }
  }
}

// One lane of SweepLanes8, for run tails shorter than a vector.
template <bool kAbsolute>
[[gnu::always_inline]] inline void SweepLane1(const SweepView& v, double dot,
                                              const double* sums,
                                              const double* invs, int64_t i,
                                              int64_t j,
                                              std::vector<Edge>* out) {
  const double cov = dot - sums[i] * sums[j] * v.inv_count;
  const double corr = ClampCorrelation(cov * invs[i] * invs[j]);
  const double beta = v.threshold;
  const bool is_edge =
      kAbsolute ? (corr <= -beta || corr >= beta) : corr >= beta;
  if (is_edge) {
    out->push_back(
        Edge{static_cast<int32_t>(i), static_cast<int32_t>(j), corr});
  }
}

// Splits the pair-id range [pair_begin, pair_end), starting at pair
// (i0, j0), into fixed-i runs: run(i, j_begin, j_end, p) for pairs
// (i, j_begin) .. (i, j_end - 1), whose ids start at p.
template <typename Run>
void ForEachRowRun(int64_t n, int64_t pair_begin, int64_t pair_end,
                   int64_t i0, int64_t j0, const Run& run) {
  int64_t p = pair_begin;
  int64_t i = i0;
  int64_t j = j0;
  while (p < pair_end) {
    const int64_t len = std::min(n - j, pair_end - p);
    run(i, j, j + len, p);
    p += len;
    j += len;
    if (j >= n) {
      ++i;
      j = i + 1;
    }
  }
}

// One fixed-i run of the pair-row sweep: pairs (i, j) for j in
// [j_begin, j_end), whose dot-prefix rows advance contiguously from
// `pair_begin`; the window loop runs *inside* each 8-pair group so the
// group's prefix cache lines serve the whole band. Each group first
// prefetches the band's lo and hi slots of the rows kSweepPrefetchGroups
// groups ahead, never past the run's end.
template <bool kAbsolute>
void SweepRowRunBand(const SweepView& v, int64_t base_w0, int64_t ns,
                     int64_t m, int64_t k_begin, int64_t k_end, int64_t i,
                     int64_t j_begin, int64_t j_end, int64_t pair_begin,
                     std::vector<Edge>* out_windows) {
  const int64_t n = v.num_series;
  const int64_t stride = v.row_stride;
  const double* rows = v.dot_prefix + pair_begin * stride;

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
      // The two prefix loads per pair are strided (one dot-prefix row per
      // pair) but L1-hot after the band's first window.
      double lo_slots[8];
      double hi_slots[8];
      const double* row = rows;
      for (int l = 0; l < 8; ++l, row += stride) {
        lo_slots[l] = row[lo];
        hi_slots[l] = row[hi];
      }
      SweepLanes8<kAbsolute>(v, LoadVec8(hi_slots) - LoadVec8(lo_slots),
                             v.range_sum + k * n, v.range_inv_css + k * n, i,
                             j, out_windows + (k - k_begin));
    }
  }
  for (; j < j_end; ++j, rows += stride) {
    for (int64_t k = k_begin; k < k_end; ++k) {
      const int64_t lo = base_w0 + k * m;
      SweepLane1<kAbsolute>(v, rows[lo + ns] - rows[lo], v.range_sum + k * n,
                            v.range_inv_css + k * n, i, j,
                            out_windows + (k - k_begin));
    }
  }
}

// One fixed-i run of the slot-row sweep in one window: pairs (i, j) for j
// in [j_begin, j_end) at columns col, col + 1, ... of the window's lo and
// hi slot rows (`row_width` doubles each), whose moment rows are `sums` /
// `invs`. Each 8-pair group prefetches the line kSlotPrefetchAhead
// doubles on in both rows, never past the row's end.
template <bool kAbsolute>
void SweepSlotRun(const SweepView& v, const double* lo_row,
                  const double* hi_row, int64_t row_width,
                  const double* sums, const double* invs, int64_t i,
                  int64_t j_begin, int64_t j_end, int64_t col,
                  std::vector<Edge>* out) {
  int64_t j = j_begin;
  for (; j + 8 <= j_end; j += 8, col += 8) {
    if (col + kSlotPrefetchAhead < row_width) {
      __builtin_prefetch(lo_row + col + kSlotPrefetchAhead);
      __builtin_prefetch(hi_row + col + kSlotPrefetchAhead);
    }
    SweepLanes8<kAbsolute>(v, LoadVec8(hi_row + col) - LoadVec8(lo_row + col),
                           sums, invs, i, j, out);
  }
  for (; j < j_end; ++j, ++col) {
    SweepLane1<kAbsolute>(v, hi_row[col] - lo_row[col], sums, invs, i, j,
                          out);
  }
}

}  // namespace

void SweepWindowBandPairRange(const SweepView& view, int64_t base_w0,
                              int64_t ns, int64_t m, int64_t k_begin,
                              int64_t k_end, int64_t pair_begin,
                              int64_t pair_end, int64_t i0, int64_t j0,
                              std::vector<Edge>* out_windows) {
  ForEachRowRun(view.num_series, pair_begin, pair_end, i0, j0,
                [&](int64_t i, int64_t j_begin, int64_t j_end, int64_t p) {
                  if (view.absolute) {
                    SweepRowRunBand<true>(view, base_w0, ns, m, k_begin,
                                          k_end, i, j_begin, j_end, p,
                                          out_windows);
                  } else {
                    SweepRowRunBand<false>(view, base_w0, ns, m, k_begin,
                                           k_end, i, j_begin, j_end, p,
                                           out_windows);
                  }
                });
}

void SweepWindowBandSlotRows(const SweepView& view, const SlotRingView& ring,
                             int64_t base_w0, int64_t ns, int64_t m,
                             int64_t k_begin, int64_t k_end,
                             int64_t pair_begin, int64_t pair_end, int64_t i0,
                             int64_t j0, std::vector<Edge>* out_windows) {
  const int64_t n = view.num_series;
  for (int64_t k = k_begin; k < k_end; ++k) {
    const int64_t lo = base_w0 + k * m;
    const double* lo_row = ring.Row(lo);
    const double* hi_row = ring.Row(lo + ns);
    const double* sums = view.range_sum + k * n;
    const double* invs = view.range_inv_css + k * n;
    std::vector<Edge>* out = out_windows + (k - k_begin);
    ForEachRowRun(n, pair_begin, pair_end, i0, j0,
                  [&](int64_t i, int64_t j_begin, int64_t j_end, int64_t) {
                    const int64_t col = ring.Column(i, j_begin);
                    if (view.absolute) {
                      SweepSlotRun<true>(view, lo_row, hi_row, ring.row_width,
                                         sums, invs, i, j_begin, j_end, col,
                                         out);
                    } else {
                      SweepSlotRun<false>(view, lo_row, hi_row,
                                          ring.row_width, sums, invs, i,
                                          j_begin, j_end, col, out);
                    }
                  });
  }
}

}  // namespace dangoron
