#include "corr/block_kernel.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_utils.h"

namespace dangoron {

namespace {

// Lane-wise comparison result of two Vec8s: all-ones where true.
typedef int64_t Mask8 __attribute__((vector_size(64), aligned(8)));

// x * x, rounded before it reaches any add: the empty asm hides the product
// from the compiler, which would otherwise fuse it into the following
// `sumsq += ` (one FMA rounding instead of two, a last-bit change in the
// window's std-dev). Without FMA hardware there is nothing to fuse.
inline Vec8 SquareRounded(Vec8 x) {
  Vec8 sq = x * x;
#if defined(__AVX512F__)
  __asm__("" : "+v"(sq));
#elif defined(__FMA__) || defined(__FMA4__) || defined(__aarch64__)
  __asm__("" : "+m"(sq));
#endif
  return sq;
}

// Lane-wise IEEE square root (correctly rounded, like std::sqrt).
inline Vec8 SqrtVec8(Vec8 x) {
#if defined(__AVX512F__)
  // The zero-masked form: GCC 12's plain _mm512_sqrt_pd trips
  // -Wmaybe-uninitialized inside its own header.
  return reinterpret_cast<Vec8>(
      _mm512_maskz_sqrt_pd(0xFF, reinterpret_cast<__m512d>(x)));
#else
  for (int v = 0; v < 8; ++v) {
    x[v] = std::sqrt(x[v]);
  }
  return x;
#endif
}

// Eight series rows read side by side: lane v is series s0 + v, and lanes
// past the last series read as zeros.
struct SeriesGroup {
  const double* rows[8] = {};
  int lanes = 0;

  SeriesGroup(const TimeSeriesMatrix& data, int64_t s0) {
    lanes = static_cast<int>(std::min<int64_t>(8, data.num_series() - s0));
    for (int v = 0; v < lanes; ++v) {
      rows[v] = data.Row(s0 + v).data();
    }
  }

  // Calls `f(x)` for t = t0, ..., t0 + count - 1 in order, x holding
  // sample t of every lane: 8x8 transposes of whole 8-sample runs, then a
  // per-lane gather for the last count mod 8.
  template <typename F>
  [[gnu::always_inline]] void ForEachStep(int64_t t0, int64_t count,
                                          F&& f) const {
    int64_t t = 0;
    for (; t + 8 <= count; t += 8) {
      Vec8 r[8];
      for (int v = 0; v < 8; ++v) {
        r[v] = v < lanes ? LoadVec8(rows[v] + t0 + t) : SplatVec8(0.0);
      }
      Transpose8x8(r);
      for (int k = 0; k < 8; ++k) {
        f(r[k]);
      }
    }
    for (; t < count; ++t) {
      Vec8 x = SplatVec8(0.0);
      for (int v = 0; v < lanes; ++v) {
        x[v] = rows[v][t0 + t];
      }
      f(x);
    }
  }

  // The group's lanes of a window-major stats row; zero past the last lane.
  Vec8 Load(const double* p) const {
    if (lanes == 8) {
      return LoadVec8(p);
    }
    Vec8 x = SplatVec8(0.0);
    for (int v = 0; v < lanes; ++v) {
      x[v] = p[v];
    }
    return x;
  }
  void Store(double* p, Vec8 x) const {
    if (lanes == 8) {
      StoreVec8(p, x);
      return;
    }
    for (int v = 0; v < lanes; ++v) {
      p[v] = x[v];
    }
  }
};

}  // namespace

Result<NormalizedPanels> ComputePanelStats(const TimeSeriesMatrix& data,
                                           int64_t basic_window,
                                           int64_t num_windows,
                                           ThreadPool* pool) {
  CHECK_GT(basic_window, 0);
  CHECK_LE(num_windows * basic_window, data.length());
  NormalizedPanels panels;
  panels.num_series = data.num_series();
  panels.basic_window = basic_window;
  panels.num_windows = num_windows;
  panels.num_tiles = CeilDiv(panels.num_series, kCorrTile);
  const int64_t n = panels.num_series;
  const int64_t b = basic_window;
  const size_t stats_size = static_cast<size_t>(num_windows * n);
  panels.mean.resize(stats_size);
  panels.stddev.resize(stats_size);
  panels.scale.resize(stats_size);

  // One task per 8-series group, walking its rows front to back: window
  // stats, a NaN flag over every sample the stats read, and a plain scan
  // of the samples past the last window.
  const int64_t num_groups = CeilDiv(n, int64_t{8});
  std::vector<char> missing(static_cast<size_t>(num_groups), 0);
  const Vec8 bw = SplatVec8(static_cast<double>(b));
  const Vec8 eps = SplatVec8(kMomentVarianceEps);
  const Vec8 zero = SplatVec8(0.0);
  ForEachTask(pool, num_groups, [&](int64_t g) {
    const SeriesGroup group(data, g * 8);
    Mask8 nan = {};
    for (int64_t w = 0; w < num_windows; ++w) {
      Vec8 sum = zero;
      Vec8 sumsq = zero;
      group.ForEachStep(w * b, b, [&](Vec8 x) {
        sum += x;
        sumsq += SquareRounded(x);
        nan |= x != x;
      });
      // Centered sum of squares (b * population variance), the exact
      // quantity PearsonFromMoments guards on. A degenerate window keeps
      // std-dev and scale at 0: the zero scale zeroes its z row, making
      // its correlations 0.
      const Vec8 var_b = sumsq - sum * sum / bw;
      const Mask8 live = var_b > eps;
      const size_t at = static_cast<size_t>(w * n + g * 8);
      group.Store(panels.mean.data() + at, sum / bw);
      group.Store(panels.stddev.data() + at,
                  live ? SqrtVec8(var_b / bw) : zero);
      group.Store(panels.scale.data() + at,
                  live ? SplatVec8(1.0) / SqrtVec8(var_b) : zero);
    }
    bool any = false;
    for (int v = 0; v < 8; ++v) {
      any = any || nan[v] != 0;
    }
    for (int v = 0; v < group.lanes; ++v) {
      const double* row = group.rows[v];
      any = any || std::any_of(row + num_windows * b, row + data.length(),
                               IsMissing);
    }
    missing[static_cast<size_t>(g)] = any ? 1 : 0;
  });
  if (std::find(missing.begin(), missing.end(), 1) != missing.end()) {
    return Status::FailedPrecondition(
        "data contains missing values; run InterpolateMissing first");
  }
  return panels;
}

void FillPanels(const TimeSeriesMatrix& data, int64_t w_begin, int64_t w_end,
                NormalizedPanels* panels, ThreadPool* pool) {
  CHECK_LE(0, w_begin);
  CHECK_LE(w_end, panels->num_windows);
  CHECK_LE(w_end - w_begin, panels->panel_windows);
  panels->first_window = w_begin;
  const int64_t n = panels->num_series;
  const int64_t b = panels->basic_window;
  // One task per block of kFillBlock windows, whose panels are contiguous
  // and small enough to stay in L2 while they are written: blocks leave
  // front to back. Within a block each 8-series group walks its rows'
  // samples for all the block's windows in one ascending run, which the
  // hardware prefetcher follows; a window-by-window walk would read every
  // series' row at once, more streams than it tracks.
  constexpr int64_t kFillBlock = 16;
  constexpr int64_t kTileGroups = kCorrTile / 8;
  const int64_t panel_size = b * kCorrTile;
  const int64_t num_groups = panels->num_tiles * kTileGroups;
  ForEachTask(pool, CeilDiv(w_end - w_begin, kFillBlock), [&](int64_t blk) {
    const int64_t k_begin = blk * kFillBlock;
    const int64_t k_end = std::min(w_end - w_begin, k_begin + kFillBlock);
    for (int64_t g = 0; g < num_groups; ++g) {
      const int64_t tile = g / kTileGroups;
      const int64_t s0 = g * 8;
      for (int64_t k = k_begin; k < k_end; ++k) {
        const int64_t w = w_begin + k;
        // Lanes s0 .. s0 + 7 are columns (g mod kTileGroups) * 8 .. + 7.
        double* out = panels->values +
                      (k * panels->num_tiles + tile) * panel_size +
                      g % kTileGroups * 8;
        if (s0 >= n) {
          for (int64_t t = 0; t < b; ++t) {
            StoreVec8(out + t * kCorrTile, SplatVec8(0.0));
          }
          continue;
        }
        const SeriesGroup group(data, s0);
        const size_t at = static_cast<size_t>(w * n + s0);
        const Vec8 mean = group.Load(panels->mean.data() + at);
        const Vec8 scale = group.Load(panels->scale.data() + at);
        group.ForEachStep(w * b, b, [&](Vec8 x) {
          StoreVec8(out, (x - mean) * scale);
          out += kCorrTile;
        });
      }
    }
  });
}

namespace {

// Register geometry of the Gram micro-kernel. 16 columns are two Vec8
// accumulators; 4 rows give 8 independent accumulator chains, enough to
// cover FMA latency on two issue ports. Accumulators are loaded from /
// stored to `out` once per time chunk; the whole t loop runs
// register-resident with one contiguous 16-wide z load per (row group, t).
// (Explicit Vec8 accumulators matter: the equivalent local-array loops
// auto-vectorize but round-trip every accumulator through the stack each
// time step.)
constexpr int64_t kRegCols = 16;
constexpr int64_t kRegRows = 4;
constexpr uint32_t kFullLanes = 0xFF;

// Bits u in [lo, hi) of a 16-lane column block, clamped to the block.
inline uint32_t LaneRange(int64_t lo, int64_t hi) {
  lo = std::max<int64_t>(lo, 0);
  hi = std::min<int64_t>(hi, kRegCols);
  if (lo >= hi) {
    return 0;
  }
  return ((uint32_t{1} << hi) - 1) & ~((uint32_t{1} << lo) - 1);
}

// Loads the lanes of `p` set in the 8-bit `mask`, zero elsewhere, without
// touching memory behind a clear lane: a masked block may hang over the
// edge of its buffer.
inline Vec8 LoadLanes(const double* p, uint32_t mask) {
  if (mask == kFullLanes) {
    return LoadVec8(p);
  }
#if defined(__AVX512F__)
  return reinterpret_cast<Vec8>(
      _mm512_maskz_loadu_pd(static_cast<__mmask8>(mask), p));
#else
  Vec8 v = SplatVec8(0.0);
  for (int u = 0; u < 8; ++u) {
    if ((mask >> u) & 1) {
      v[u] = p[u];
    }
  }
  return v;
#endif
}

// Stores the lanes of `v` set in `mask`; every other cell is untouched.
inline void StoreLanes(double* p, Vec8 v, uint32_t mask) {
  if (mask == kFullLanes) {
    StoreVec8(p, v);
    return;
  }
#if defined(__AVX512F__)
  _mm512_mask_storeu_pd(p, static_cast<__mmask8>(mask),
                        reinterpret_cast<__m512d>(v));
#else
  for (int u = 0; u < 8; ++u) {
    if ((mask >> u) & 1) {
      p[u] = v[u];
    }
  }
#endif
}

// One kRows x 16 block at local columns [cb, cb + 16). Unmasked, every
// cell is written. With kMaskRows, row v writes the lanes of row_mask[v]
// (bit u = column cb + u) and leaves the rest of its 16 cells untouched;
// with kMaskCols the block hangs past the last column too, and the z loads
// read only the lanes of col_mask. Every written cell is the plain
// ascending-t sum over [t_begin, t_end).
template <int kRows, bool kMaskRows, bool kMaskCols>
[[gnu::always_inline]] inline void GramBlock(
    const double* zrows, int64_t row_stride, const double* zcols,
    int64_t col_stride, int64_t t_begin, int64_t t_end, int64_t r, int64_t cb,
    const uint32_t* row_mask, uint32_t col_mask, double* out,
    int64_t out_stride, bool load_acc) {
  auto load = [&](const double* p, int v, int half) {
    if (!load_acc) {
      return SplatVec8(0.0);
    }
    return kMaskRows ? LoadLanes(p, (row_mask[v] >> (8 * half)) & kFullLanes)
                     : LoadVec8(p);
  };
  auto store = [&](double* p, Vec8 a, int v, int half) {
    if (kMaskRows) {
      StoreLanes(p, a, (row_mask[v] >> (8 * half)) & kFullLanes);
    } else {
      StoreVec8(p, a);
    }
  };
  Vec8 acc[kRows][2];
#pragma GCC unroll 4
  for (int v = 0; v < kRows; ++v) {
    const double* dst = out + (r + v) * out_stride + cb;
    acc[v][0] = load(dst, v, 0);
    acc[v][1] = load(dst + 8, v, 1);
  }
  const double* zr = zrows + t_begin * row_stride + r;
  const double* zc = zcols + t_begin * col_stride + cb;
  for (int64_t t = t_begin; t < t_end;
       ++t, zr += row_stride, zc += col_stride) {
    const Vec8 c0 = kMaskCols ? LoadLanes(zc, col_mask & kFullLanes)
                              : LoadVec8(zc);
    const Vec8 c1 = kMaskCols ? LoadLanes(zc + 8, col_mask >> 8)
                              : LoadVec8(zc + 8);
#pragma GCC unroll 4
    for (int v = 0; v < kRows; ++v) {
      const Vec8 zrv = SplatVec8(zr[v]);
      acc[v][0] += zrv * c0;
      acc[v][1] += zrv * c1;
    }
  }
#pragma GCC unroll 4
  for (int v = 0; v < kRows; ++v) {
    double* dst = out + (r + v) * out_stride + cb;
    store(dst, acc[v][0], v, 0);
    store(dst + 8, acc[v][1], v, 1);
  }
}

// Rows r .. r + kRows - 1 over every 16-column block holding one of their
// cells: row r + v covers local columns [row_lo[v], ncols), row_lo
// ascending. The first block starts at row_lo[0] rounded down to a
// multiple of 16, so the triangle beside a diagonal runs as masked
// full-width blocks.
template <int kRows>
void GramRowGroup(const double* zrows, int64_t row_stride,
                  const double* zcols, int64_t col_stride, int64_t t_begin,
                  int64_t t_end, int64_t r, const int64_t* row_lo,
                  int64_t ncols, double* out, int64_t out_stride,
                  bool load_acc) {
  for (int64_t cb = row_lo[0] / kRegCols * kRegCols; cb < ncols;
       cb += kRegCols) {
    const bool ragged_cols = cb + kRegCols > ncols;
    if (!ragged_cols && row_lo[kRows - 1] <= cb) {
      GramBlock<kRows, false, false>(zrows, row_stride, zcols, col_stride,
                                     t_begin, t_end, r, cb, nullptr, 0, out,
                                     out_stride, load_acc);
      continue;
    }
    uint32_t row_mask[kRows];
    for (int v = 0; v < kRows; ++v) {
      row_mask[v] = LaneRange(row_lo[v] - cb, ncols - cb);
    }
    if (!ragged_cols) {
      GramBlock<kRows, true, false>(zrows, row_stride, zcols, col_stride,
                                    t_begin, t_end, r, cb, row_mask, 0, out,
                                    out_stride, load_acc);
    } else {
      GramBlock<kRows, true, true>(zrows, row_stride, zcols, col_stride,
                                   t_begin, t_end, r, cb, row_mask,
                                   LaneRange(0, ncols - cb), out, out_stride,
                                   load_acc);
    }
  }
}

}  // namespace

void GramPanelTile(const double* zrows, int64_t row_stride, int64_t nrows,
                   const double* zcols, int64_t col_stride, int64_t ncols,
                   int64_t t_begin, int64_t t_end, bool upper_only,
                   int64_t diag, double* out, int64_t out_stride,
                   bool accumulate) {
  // Time chunking bounds the streamed working set so the z blocks a
  // row-group re-reads stay cache-resident; the per-cell summation order is
  // plain ascending t, independent of every blocking choice below.
  constexpr int64_t kTimeChunk = 512;
  // By row count; only the tile's last group has fewer than kRegRows rows.
  constexpr decltype(&GramRowGroup<1>) kRowGroup[kRegRows] = {
      GramRowGroup<1>, GramRowGroup<2>, GramRowGroup<3>, GramRowGroup<4>};
  for (int64_t tc = t_begin; tc < t_end; tc += kTimeChunk) {
    const int64_t te = std::min(t_end, tc + kTimeChunk);
    // Only the first chunk may overwrite; later chunks always fold in.
    const bool load_acc = accumulate || tc != t_begin;
    for (int64_t r = 0; r < nrows; r += kRegRows) {
      // First local column each row of the group writes.
      int64_t row_lo[kRegRows];
      for (int64_t v = 0; v < kRegRows; ++v) {
        row_lo[v] = upper_only ? std::max<int64_t>(0, r + v + diag + 1) : 0;
      }
      kRowGroup[std::min(kRegRows, nrows - r) - 1](
          zrows, row_stride, zcols, col_stride, tc, te, r, row_lo, ncols, out,
          out_stride, load_acc);
    }
  }
}

void GramAccumulateTile(const double* zt, int64_t num_series, int64_t t_begin,
                        int64_t t_end, int64_t row_begin, int64_t row_end,
                        int64_t col_begin, int64_t col_end, bool upper_only,
                        double* out, int64_t out_stride, bool accumulate) {
  GramPanelTile(zt + row_begin, num_series, row_end - row_begin,
                zt + col_begin, num_series, col_end - col_begin, t_begin,
                t_end, upper_only, row_begin - col_begin, out, out_stride,
                accumulate);
}

void GramUpperTriangle(const double* zt, int64_t num_series, int64_t t_begin,
                       int64_t t_end, double* matrix, ThreadPool* pool) {
  const int64_t num_row_tiles = CeilDiv(num_series, kCorrTile);
  auto run_row_tile = [&](int64_t ti) {
    const int64_t row_begin = ti * kCorrTile;
    const int64_t row_end = std::min(num_series, row_begin + kCorrTile);
    for (int64_t tj = ti; tj < num_row_tiles; ++tj) {
      const int64_t col_begin = tj * kCorrTile;
      const int64_t col_end = std::min(num_series, col_begin + kCorrTile);
      GramAccumulateTile(zt, num_series, t_begin, t_end, row_begin, row_end,
                         col_begin, col_end, /*upper_only=*/tj == ti,
                         matrix + row_begin * num_series + col_begin,
                         num_series);
    }
  };
  ForEachTask(pool, num_row_tiles, run_row_tile);
}

}  // namespace dangoron
