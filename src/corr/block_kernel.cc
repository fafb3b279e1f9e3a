#include "corr/block_kernel.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/math_utils.h"

namespace dangoron {

namespace {

// Stats of one series within one basic window, in the forms the panel
// builder needs. The degenerate-window guard compares the same centered sum
// of squares against the same kMomentVarianceEps as the scalar moment
// kernels, so the two build paths agree on which windows are dead.
struct WindowZStats {
  double mean = 0.0;
  double stddev = 0.0;  // population; 0 for a degenerate window
  double scale = 0.0;   // 1 / sqrt(centered sum of squares); 0 if degenerate
};

inline WindowZStats ComputeWindowZStats(const double* x, int64_t b) {
  double sum = 0.0;
  double sumsq = 0.0;
  for (int64_t t = 0; t < b; ++t) {
    sum += x[t];
    sumsq += x[t] * x[t];
  }
  WindowZStats stats;
  stats.mean = sum / static_cast<double>(b);
  // Centered sum of squares (b * population variance), the exact quantity
  // PearsonFromMoments guards on. A degenerate window keeps stddev and
  // scale at 0: the zero scale zeroes the z row, making its correlations 0.
  const double var_b = sumsq - sum * sum / static_cast<double>(b);
  if (var_b > kMomentVarianceEps) {
    stats.stddev = std::sqrt(var_b / static_cast<double>(b));
    stats.scale = 1.0 / std::sqrt(var_b);
  }
  return stats;
}

}  // namespace

NormalizedPanels BuildNormalizedPanels(const TimeSeriesMatrix& data,
                                       int64_t basic_window,
                                       ThreadPool* pool,
                                       int64_t num_windows) {
  CHECK_GT(basic_window, 0);
  NormalizedPanels panels;
  panels.num_series = data.num_series();
  panels.basic_window = basic_window;
  panels.num_windows = data.length() / basic_window;
  if (num_windows >= 0) {
    CHECK_LE(num_windows, panels.num_windows);
    panels.num_windows = num_windows;
  }
  panels.num_tiles = CeilDiv(panels.num_series, kCorrTile);

  const int64_t n = panels.num_series;
  const int64_t b = basic_window;
  const int64_t nb = panels.num_windows;
  // Drawn from the recycler, not zero-filled: fill_tile writes every cell.
  panels.values = SketchBlock(
      static_cast<size_t>(nb * panels.num_tiles * b * kCorrTile),
      BlockPool::kPanels);
  panels.mean.assign(static_cast<size_t>(nb * n), 0.0);
  panels.stddev.assign(static_cast<size_t>(nb * n), 0.0);

  // One task per series tile: window stats per series, then the transposing
  // fill of the tile's panels — contiguous kCorrTile-wide writes, with the
  // tile's raw row segments cache-hot. Columns past num_series (the last
  // tile's padding) are zeroed here.
  auto fill_tile = [&](int64_t tile) {
    const int64_t s_begin = tile * kCorrTile;
    const int64_t s_end = std::min(n, s_begin + kCorrTile);
    double mean_c[kCorrTile];
    double scale_c[kCorrTile];
    for (int64_t w = 0; w < nb; ++w) {
      for (int64_t s = s_begin; s < s_end; ++s) {
        const WindowZStats stats =
            ComputeWindowZStats(data.Row(s).data() + w * b, b);
        panels.mean[static_cast<size_t>(w * n + s)] = stats.mean;
        panels.stddev[static_cast<size_t>(w * n + s)] = stats.stddev;
        mean_c[s - s_begin] = stats.mean;
        scale_c[s - s_begin] = stats.scale;
      }
      double* panel = panels.values.data() +
                      static_cast<size_t>((w * panels.num_tiles + tile) * b *
                                          kCorrTile);
      for (int64_t t = 0; t < b; ++t) {
        double* zrow = panel + t * kCorrTile;
        for (int64_t s = s_begin; s < s_end; ++s) {
          zrow[s - s_begin] = (data.Row(s)[static_cast<size_t>(w * b + t)] -
                               mean_c[s - s_begin]) *
                              scale_c[s - s_begin];
        }
        std::fill(zrow + (s_end - s_begin), zrow + kCorrTile, 0.0);
      }
    }
  };

  if (pool != nullptr && pool->num_threads() > 1 && panels.num_tiles > 1) {
    pool->ParallelFor(panels.num_tiles, fill_tile);
  } else {
    for (int64_t tile = 0; tile < panels.num_tiles; ++tile) {
      fill_tile(tile);
    }
  }
  return panels;
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
  if (pool != nullptr && pool->num_threads() > 1 && num_row_tiles > 1) {
    pool->ParallelFor(num_row_tiles, run_row_tile);
  } else {
    for (int64_t ti = 0; ti < num_row_tiles; ++ti) {
      run_row_tile(ti);
    }
  }
}

}  // namespace dangoron
