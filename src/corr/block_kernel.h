#ifndef DANGORON_CORR_BLOCK_KERNEL_H_
#define DANGORON_CORR_BLOCK_KERNEL_H_

#include <cstdint>
#include <span>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

#include "common/status.h"
#include "common/thread_pool.h"
#include "ts/time_series_matrix.h"

namespace dangoron {

/// Variance guard shared by every moment-form correlation kernel: when the
/// centered sum of squares (n * population variance) of either side is at or
/// below this, the correlation is reported as 0 ("no edge" for dead sensors).
inline constexpr double kMomentVarianceEps = 1e-12;

/// Series-tile edge of the blocked Gram kernels. 48 rows x 48 cols of
/// doubles is an 18 KiB accumulator tile — comfortably L1-resident next to
/// the streamed time-major rows.
inline constexpr int64_t kCorrTile = 48;

/// 8-wide double vector of the hot kernels (GCC/Clang vector extension).
/// Explicit vector accumulators are what keep the micro-kernels
/// register-resident: the equivalent local-array loops auto-vectorize but
/// get round-tripped through the stack every iteration. Lane arithmetic is
/// element-wise IEEE, identical to the matching scalar loop.
typedef double Vec8 __attribute__((vector_size(64), aligned(8)));

inline Vec8 LoadVec8(const double* p) {
  Vec8 v;
  __builtin_memcpy(&v, p, sizeof(v));
  return v;
}
inline void StoreVec8(double* p, Vec8 v) { __builtin_memcpy(p, &v, sizeof(v)); }
inline Vec8 SplatVec8(double x) { return Vec8{x, x, x, x, x, x, x, x}; }

/// Non-temporal full-line store of `v` to 64-byte-aligned `p`: bypasses the
/// cache hierarchy — no read-for-ownership, no pollution — for big
/// write-once buffers the writer will not re-read. Falls back to a regular
/// store off AVX-512. Producers must StreamFence() before publishing the
/// buffer to other threads.
inline void StreamVec8(double* p, Vec8 v) {
#if defined(__AVX512F__)
  _mm512_stream_pd(p, reinterpret_cast<__m512d>(v));
#else
  StoreVec8(p, v);
#endif
}

/// Orders preceding non-temporal stores before later stores/publication.
inline void StreamFence() {
#if defined(__AVX512F__)
  _mm_sfence();
#endif
}

/// Software-prefetches the cache lines holding slots first, first + step,
/// ..., and last of `row` — every line of [first, last] when step <= 8.
/// Callers keep [first, last] inside the row. Always inlined: GCC's IPA
/// pass deems an out-of-line function of bare prefetches side-effect free
/// and deletes the call.
[[gnu::always_inline]] inline void PrefetchRowSlots(const double* row,
                                                    int64_t first,
                                                    int64_t last,
                                                    int64_t step) {
  for (int64_t w = first; w <= last; w += step) {
    __builtin_prefetch(row + w);
  }
  __builtin_prefetch(row + last);
}

/// In-register 8x8 transpose: on return r[j][i] holds the old r[i][j].
/// Lets producers of 8-wide columns emit full contiguous rows (one cache
/// line each) without bouncing scalars through a staging buffer — partial
/// reloads of a just-stored vector stall on failed store-to-load forwarding.
inline void Transpose8x8(Vec8 r[8]) {
  const Vec8 a0 = __builtin_shufflevector(r[0], r[1], 0, 8, 2, 10, 4, 12, 6, 14);
  const Vec8 a1 = __builtin_shufflevector(r[0], r[1], 1, 9, 3, 11, 5, 13, 7, 15);
  const Vec8 a2 = __builtin_shufflevector(r[2], r[3], 0, 8, 2, 10, 4, 12, 6, 14);
  const Vec8 a3 = __builtin_shufflevector(r[2], r[3], 1, 9, 3, 11, 5, 13, 7, 15);
  const Vec8 a4 = __builtin_shufflevector(r[4], r[5], 0, 8, 2, 10, 4, 12, 6, 14);
  const Vec8 a5 = __builtin_shufflevector(r[4], r[5], 1, 9, 3, 11, 5, 13, 7, 15);
  const Vec8 a6 = __builtin_shufflevector(r[6], r[7], 0, 8, 2, 10, 4, 12, 6, 14);
  const Vec8 a7 = __builtin_shufflevector(r[6], r[7], 1, 9, 3, 11, 5, 13, 7, 15);
  const Vec8 b0 = __builtin_shufflevector(a0, a2, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 b1 = __builtin_shufflevector(a1, a3, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 b2 = __builtin_shufflevector(a0, a2, 2, 3, 10, 11, 6, 7, 14, 15);
  const Vec8 b3 = __builtin_shufflevector(a1, a3, 2, 3, 10, 11, 6, 7, 14, 15);
  const Vec8 b4 = __builtin_shufflevector(a4, a6, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 b5 = __builtin_shufflevector(a5, a7, 0, 1, 8, 9, 4, 5, 12, 13);
  const Vec8 b6 = __builtin_shufflevector(a4, a6, 2, 3, 10, 11, 6, 7, 14, 15);
  const Vec8 b7 = __builtin_shufflevector(a5, a7, 2, 3, 10, 11, 6, 7, 14, 15);
  r[0] = __builtin_shufflevector(b0, b4, 0, 1, 2, 3, 8, 9, 10, 11);
  r[1] = __builtin_shufflevector(b1, b5, 0, 1, 2, 3, 8, 9, 10, 11);
  r[2] = __builtin_shufflevector(b2, b6, 0, 1, 2, 3, 8, 9, 10, 11);
  r[3] = __builtin_shufflevector(b3, b7, 0, 1, 2, 3, 8, 9, 10, 11);
  r[4] = __builtin_shufflevector(b0, b4, 4, 5, 6, 7, 12, 13, 14, 15);
  r[5] = __builtin_shufflevector(b1, b5, 4, 5, 6, 7, 12, 13, 14, 15);
  r[6] = __builtin_shufflevector(b2, b6, 4, 5, 6, 7, 12, 13, 14, 15);
  r[7] = __builtin_shufflevector(b3, b7, 4, 5, 6, 7, 12, 13, 14, 15);
}

/// Per-basic-window z-normalized copy of a TimeSeriesMatrix, the data layout
/// of the blocked correlation kernels.
///
/// Within each basic window w, series s is normalized as
///
///   z[t] = (x[t] - mean_{w,s}) / sqrt(sum_t (x[t] - mean_{w,s})^2)
///
/// so the correlation of any two series within the window is the plain dot
/// product of their z rows (TSUBASA / Dangoron's per-basic-window reduction,
/// with the scaling folded in so no per-pair divide or sqrt remains).
/// Degenerate (near-constant) windows — centered sum of squares at or below
/// kMomentVarianceEps — are stored as all-zero rows, which makes every
/// correlation involving them exactly 0, matching PearsonFromMoments.
///
/// The z values are stored as time-major *series-tile panels*: panel
/// (w, tile) is a basic_window x kCorrTile block whose row t is the
/// contiguous vector of series [tile * kCorrTile, (tile+1) * kCorrTile) at
/// time step w * basic_window + t, zero-padded past num_series. Contiguous
/// rows make the Gram update a sequence of rank-1 updates whose inner loop
/// vectorizes into FMA streams, and a Gram tile pair streams two contiguous
/// panels per window — sequential across windows — instead of gathering
/// tile-wide slivers out of rows num_series * 8 bytes apart, which is the
/// difference between prefetchable streams and latency-bound cache misses
/// on large N.
///
/// Built in two steps: ComputePanelStats derives every window's statistics
/// in one pass over the raw rows, then FillPanels normalizes any range of
/// windows into the panel storage. A full index build fills every window at
/// once; a band stream holds a few windows of panels at a time and refills
/// them as it folds.
struct NormalizedPanels {
  int64_t num_series = 0;
  int64_t basic_window = 0;
  /// Windows with statistics: [0, num_windows).
  int64_t num_windows = 0;
  int64_t num_tiles = 0;

  /// Window-major per-series statistics, size num_windows * num_series:
  /// the window mean, its population std-dev and its z scale
  /// 1 / sqrt(centered sum of squares) — std-dev and scale 0 for a
  /// degenerate window.
  std::vector<double> mean;
  std::vector<double> stddev;
  std::vector<double> scale;

  /// Panels of windows [first_window, first_window + panel_windows), at
  /// [((w - first_window) * num_tiles + tile) * basic_window + t] *
  /// kCorrTile + s'. Not owned: the caller points it at PanelDoubles()
  /// doubles of 64-byte-aligned storage, and FillPanels writes every cell
  /// of the windows it fills.
  double* values = nullptr;
  int64_t panel_windows = 0;
  int64_t first_window = 0;

  /// Doubles of panel storage for panel_windows windows.
  int64_t PanelDoubles() const {
    return panel_windows * num_tiles * basic_window * kCorrTile;
  }
  const double* Panel(int64_t w, int64_t tile) const {
    return values +
           static_cast<size_t>((((w - first_window) * num_tiles + tile) *
                                basic_window) *
                               kCorrTile);
  }
};

/// The statistics pass of the panel build over basic windows
/// [0, num_windows) of `data`; the caller then provides panel storage
/// (values, panel_windows) and fills it. Reads the raw rows once, 8 series
/// per Vec8 through 8x8 transposes; each lane sums its series' samples in
/// ascending t, with every square rounded before it is added, exactly like
/// the scalar loop `sum += x; sumsq += x * x` compiled without
/// contraction. Parallel over 8-series groups when a pool is given;
/// identical results for any thread count.
///
/// Fails with FailedPrecondition when any sample of `data` is NaN: the
/// pass flags those it reads, and scans the samples past the last window.
Result<NormalizedPanels> ComputePanelStats(const TimeSeriesMatrix& data,
                                           int64_t basic_window,
                                           int64_t num_windows,
                                           ThreadPool* pool = nullptr);

/// Normalizes basic windows [w_begin, w_end) of `data` into `panels`'
/// storage, which then holds exactly those windows (first_window =
/// w_begin; w_end - w_begin <= panel_windows). Every cell of the range is
/// written, the zero padding past num_series included, in blocks of 16
/// windows front to back. A window's panels depend on that window alone,
/// so any range, and any thread count (the pool splits the blocks), gives
/// the same values.
void FillPanels(const TimeSeriesMatrix& data, int64_t w_begin, int64_t w_end,
                NormalizedPanels* panels, ThreadPool* pool = nullptr);

/// Core blocked kernel: computes the Gram (pairwise dot product) tile of a
/// time-major buffer `zt` (rows = time steps, each a contiguous vector of
/// `num_series` values):
///
///   out[(r - row_begin) * out_stride + (c - col_begin)] =
///       sum_{t in [t_begin, t_end)} zt[t * num_series + r] *
///                                   zt[t * num_series + c]
///
/// for r in [row_begin, row_end), c in [col_begin, col_end) — and, when
/// `upper_only` is set, only for c > r (the rest of `out` is untouched).
///
/// With `accumulate` set, `out` is added to instead of assigned (callers
/// zero it first and may compose disjoint time ranges); without it, `out`
/// may be uninitialized — covered cells are overwritten. The per-cell
/// summation order is ascending t regardless of tiling or threading, so
/// results are bit-identical for any decomposition.
///
/// On z-normalized inputs (see NormalizedPanels) the computed value is
/// the Pearson correlation of series r and c over the time range.
void GramAccumulateTile(const double* zt, int64_t num_series, int64_t t_begin,
                        int64_t t_end, int64_t row_begin, int64_t row_end,
                        int64_t col_begin, int64_t col_end, bool upper_only,
                        double* out, int64_t out_stride,
                        bool accumulate = false);

/// Gram tile between two (possibly distinct) time-major blocks: computes
///
///   out[r * out_stride + c] =
///       sum_{t in [t_begin, t_end)} zrows[t * row_stride + r] *
///                                   zcols[t * col_stride + c]
///
/// for r in [0, nrows), c in [0, ncols) — restricted to c > r + diag when
/// `upper_only` is set (`diag` aligns local indices when the two blocks
/// cover overlapping global series ranges; use diag = global_row_begin -
/// global_col_begin). Same accumulate and determinism semantics as
/// GramAccumulateTile, which is a thin wrapper over this. The panel form of
/// the index build calls it with two NormalizedPanels blocks
/// (row_stride == col_stride == kCorrTile).
void GramPanelTile(const double* zrows, int64_t row_stride, int64_t nrows,
                   const double* zcols, int64_t col_stride, int64_t ncols,
                   int64_t t_begin, int64_t t_end, bool upper_only,
                   int64_t diag, double* out, int64_t out_stride,
                   bool accumulate = false);

/// Fills the upper triangle (c > r) of the dense `num_series x num_series`
/// Gram matrix of `zt` over [t_begin, t_end), tiled in kCorrTile blocks and
/// parallelized over row tiles when a pool is given. `matrix` is row-major
/// with stride num_series; the diagonal and lower triangle are untouched.
/// Deterministic for any thread count.
void GramUpperTriangle(const double* zt, int64_t num_series, int64_t t_begin,
                       int64_t t_end, double* matrix,
                       ThreadPool* pool = nullptr);

}  // namespace dangoron

#endif  // DANGORON_CORR_BLOCK_KERNEL_H_
