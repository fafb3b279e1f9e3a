#include "corr/block_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "corr/pearson.h"
#include "engine/dangoron_engine.h"
#include "engine/naive_engine.h"
#include "sketch/basic_window_index.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

// Random data with deliberately hostile windows: a dead (constant) sensor, a
// series that flatlines in some basic windows only, and an exact duplicate
// pair — every eps-guard and clamp path of the kernels gets exercised.
TimeSeriesMatrix HostileData(int64_t n, int64_t length, int64_t b,
                             uint64_t seed) {
  Rng rng(seed);
  TimeSeriesMatrix data = GenerateWhiteNoise(n, length, &rng);
  for (int64_t t = 0; t < length; ++t) {
    data.Set(0, t, 42.0);                    // dead sensor
    if (n > 2) {
      data.Set(2, t, data.Get(1, t));        // exact duplicate of series 1
    }
    if (n > 3 && (t / b) % 3 == 1) {
      data.Set(3, t, -7.5);                  // flatlines every third window
    }
  }
  return data;
}

TEST(GramAccumulateTileTest, MatchesNaiveDotProducts) {
  const int64_t n = 7;
  const int64_t steps = 1200;  // crosses the internal time-chunk boundary
  Rng rng(11);
  std::vector<double> zt(static_cast<size_t>(steps * n));
  for (double& v : zt) {
    v = rng.NextGaussian();
  }
  std::vector<double> full(static_cast<size_t>(n * n), 0.0);
  GramAccumulateTile(zt.data(), n, 0, steps, 0, n, 0, n,
                     /*upper_only=*/false, full.data(), n);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < n; ++c) {
      double expected = 0.0;
      for (int64_t t = 0; t < steps; ++t) {
        expected += zt[static_cast<size_t>(t * n + r)] *
                    zt[static_cast<size_t>(t * n + c)];
      }
      EXPECT_NEAR(full[static_cast<size_t>(r * n + c)], expected, 1e-9)
          << "(" << r << ", " << c << ")";
    }
  }

  // upper_only leaves the diagonal and lower triangle untouched.
  std::vector<double> upper(static_cast<size_t>(n * n), -99.0);
  GramAccumulateTile(zt.data(), n, 0, steps, 0, n, 0, n,
                     /*upper_only=*/true, upper.data(), n);
  for (int64_t r = 0; r < n; ++r) {
    for (int64_t c = 0; c < n; ++c) {
      if (c > r) {
        EXPECT_DOUBLE_EQ(upper[static_cast<size_t>(r * n + c)],
                         full[static_cast<size_t>(r * n + c)]);
      } else {
        EXPECT_EQ(upper[static_cast<size_t>(r * n + c)], -99.0);
      }
    }
  }
}

TEST(GramAccumulateTileTest, DisjointTimeRangesCompose) {
  const int64_t n = 5;
  const int64_t steps = 700;
  Rng rng(13);
  std::vector<double> zt(static_cast<size_t>(steps * n));
  for (double& v : zt) {
    v = rng.NextGaussian();
  }
  std::vector<double> whole(static_cast<size_t>(n * n), 0.0);
  GramAccumulateTile(zt.data(), n, 0, steps, 0, n, 0, n, false, whole.data(),
                     n);
  std::vector<double> pieces(static_cast<size_t>(n * n), 0.0);
  GramAccumulateTile(zt.data(), n, 0, 300, 0, n, 0, n, false, pieces.data(),
                     n, /*accumulate=*/true);
  GramAccumulateTile(zt.data(), n, 300, steps, 0, n, 0, n, false,
                     pieces.data(), n, /*accumulate=*/true);
  for (size_t v = 0; v < whole.size(); ++v) {
    EXPECT_NEAR(pieces[v], whole[v], 1e-9);
  }
}

// GramPanelTile bit for bit against the plain ascending-t loop, over shapes
// that reach every block kind: partial row groups (nrows 1..9), ragged and
// sub-vector column counts, diagonals that start left of, on and right of
// the tile, both write modes, and time ranges that cross the kernel's
// internal time chunk. Every buffer is exactly as wide as its shape, and
// cells outside the contract (c <= r + diag under upper_only, and the
// out_stride gap past ncols) must keep their sentinel bits.
TEST(GramPanelTileTest, MatchesPlainLoopBitForBitOverShapes) {
  constexpr int64_t kOutGap = 3;
  const std::pair<int64_t, int64_t> kTimeRanges[] = {{0, 8}, {500, 1100}};
  Rng rng(2023);
  for (const int64_t nrows : {1, 2, 3, 4, 5, 6, 7, 8, 9, 48}) {
    for (const int64_t ncols : {1, 7, 8, 15, 16, 17, 33, 48}) {
      const int64_t steps = 1100;
      std::vector<double> zrows(static_cast<size_t>(steps * nrows));
      std::vector<double> zcols(static_cast<size_t>(steps * ncols));
      for (double& v : zrows) {
        v = rng.NextGaussian();
      }
      for (double& v : zcols) {
        v = rng.NextGaussian();
      }
      const int64_t out_stride = ncols + kOutGap;
      for (const bool upper_only : {false, true}) {
        for (const int64_t diag : {-5, 0, 3, 47}) {
          if (!upper_only && diag != 0) {
            continue;  // diag only shapes the upper_only contract
          }
          for (const bool accumulate : {false, true}) {
            for (const auto& [t_begin, t_end] : kTimeRanges) {
              SCOPED_TRACE(testing::Message()
                           << "nrows=" << nrows << " ncols=" << ncols
                           << " upper_only=" << upper_only << " diag=" << diag
                           << " accumulate=" << accumulate << " t=[" << t_begin
                           << ", " << t_end << ")");
              std::vector<double> initial(
                  static_cast<size_t>(nrows * out_stride));
              for (double& v : initial) {
                v = accumulate ? rng.NextGaussian() : -777.25;
              }
              std::vector<double> out = initial;
              GramPanelTile(zrows.data(), nrows, nrows, zcols.data(), ncols,
                            ncols, t_begin, t_end, upper_only, diag,
                            out.data(), out_stride, accumulate);
              for (int64_t r = 0; r < nrows; ++r) {
                for (int64_t c = 0; c < out_stride; ++c) {
                  const size_t cell = static_cast<size_t>(r * out_stride + c);
                  double want = initial[cell];
                  if (c < ncols && (!upper_only || c > r + diag)) {
                    double acc = accumulate ? initial[cell] : 0.0;
                    for (int64_t t = t_begin; t < t_end; ++t) {
                      acc += zrows[static_cast<size_t>(t * nrows + r)] *
                             zcols[static_cast<size_t>(t * ncols + c)];
                    }
                    want = acc;
                  }
                  ASSERT_EQ(std::bit_cast<uint64_t>(out[cell]),
                            std::bit_cast<uint64_t>(want))
                      << "cell (" << r << ", " << c << ")";
                }
              }
            }
          }
        }
      }
    }
  }
}

// The scalar window statistics the vector stats pass replaced, kept as its
// oracle. Each square is rounded before it is added (the volatile keeps
// the compiler from fusing the two into one FMA), which is the pass's
// contract for every basic window length.
struct ScalarZStats {
  double mean = 0.0;
  double stddev = 0.0;
  double scale = 0.0;
};

ScalarZStats ScalarWindowZStats(const double* x, int64_t b) {
  double sum = 0.0;
  double sumsq = 0.0;
  for (int64_t t = 0; t < b; ++t) {
    sum += x[t];
    volatile double sq = x[t] * x[t];
    sumsq += sq;
  }
  ScalarZStats stats;
  stats.mean = sum / static_cast<double>(b);
  const double var_b = sumsq - sum * sum / static_cast<double>(b);
  if (var_b > kMomentVarianceEps) {
    stats.stddev = std::sqrt(var_b / static_cast<double>(b));
    stats.scale = 1.0 / std::sqrt(var_b);
  }
  return stats;
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Gives `panels` storage for `windows` windows, poisoned so that a fill
// that skips a cell leaves a NaN behind.
void PoisonedStorage(int64_t windows, NormalizedPanels* panels,
                     std::vector<double>* storage) {
  panels->panel_windows = windows;
  storage->assign(static_cast<size_t>(panels->PanelDoubles()),
                  std::numeric_limits<double>::quiet_NaN());
  panels->values = storage->data();
}

// The two-step panel build against the scalar oracle, over series counts
// around the 8-lane groups and the 48-series tile and basic windows
// around the 8-sample transposes, with a ragged tail after the last full
// window.
TEST(NormalizedPanelsTest, MatchesScalarStatsAndZeroesDegenerates) {
  ThreadPool pool(3);
  const int64_t nb = 11;
  for (const int64_t n : {1, 7, 8, 9, 61, 97}) {
    for (const int64_t b : {1, 5, 8, 16, 24, 25}) {
      SCOPED_TRACE(testing::Message() << "n=" << n << " b=" << b);
      const TimeSeriesMatrix data =
          HostileData(n, nb * b + 3, b, 17 + static_cast<uint64_t>(n * b));
      auto built = ComputePanelStats(data, b, nb);
      ASSERT_TRUE(built.ok());
      NormalizedPanels panels = std::move(*built);
      ASSERT_EQ(panels.num_windows, nb);
      ASSERT_EQ(panels.num_tiles, (n + kCorrTile - 1) / kCorrTile);
      std::vector<double> storage;
      PoisonedStorage(nb, &panels, &storage);
      FillPanels(data, 0, nb, &panels);

      for (int64_t s = 0; s < n; ++s) {
        const double* row = data.Row(s).data();
        const int64_t tile = s / kCorrTile;
        const int64_t sp = s % kCorrTile;
        for (int64_t w = 0; w < nb; ++w) {
          const ScalarZStats want = ScalarWindowZStats(row + w * b, b);
          const size_t at = static_cast<size_t>(w * n + s);
          ASSERT_EQ(Bits(panels.mean[at]), Bits(want.mean)) << s << " " << w;
          ASSERT_EQ(Bits(panels.stddev[at]), Bits(want.stddev));
          ASSERT_EQ(Bits(panels.scale[at]), Bits(want.scale));
          const double* panel = panels.Panel(w, tile);
          double sum = 0.0;
          double sumsq = 0.0;
          for (int64_t t = 0; t < b; ++t) {
            const double z = panel[t * kCorrTile + sp];
            ASSERT_EQ(Bits(z), Bits((row[w * b + t] - want.mean) * want.scale));
            sum += z;
            sumsq += z * z;
          }
          if (want.stddev == 0.0) {
            // Degenerate window: the z row must be exactly zero.
            EXPECT_EQ(sum, 0.0) << "s=" << s << " w=" << w;
            EXPECT_EQ(sumsq, 0.0);
          } else {
            EXPECT_NEAR(sum, 0.0, 1e-9);
            EXPECT_NEAR(sumsq, 1.0, 1e-9);  // unit centered sum of squares
          }
        }
      }

      // Padding columns past num_series are written, as +0.0.
      const int64_t last_tile = panels.num_tiles - 1;
      for (int64_t w = 0; w < nb; ++w) {
        const double* panel = panels.Panel(w, last_tile);
        for (int64_t t = 0; t < b; ++t) {
          for (int64_t sp = n - last_tile * kCorrTile; sp < kCorrTile; ++sp) {
            ASSERT_EQ(Bits(panel[t * kCorrTile + sp]), Bits(0.0))
                << "w=" << w << " t=" << t;
          }
        }
      }

      // A five-window chunk filled on a pool holds exactly those windows
      // of the whole fill, and its statistics are the serial pass's.
      auto chunk = ComputePanelStats(data, b, nb, &pool);
      ASSERT_TRUE(chunk.ok());
      EXPECT_EQ(chunk->mean, panels.mean);
      EXPECT_EQ(chunk->stddev, panels.stddev);
      EXPECT_EQ(chunk->scale, panels.scale);
      std::vector<double> chunk_storage;
      PoisonedStorage(5, &*chunk, &chunk_storage);
      FillPanels(data, 3, 8, &*chunk, &pool);
      EXPECT_EQ(chunk->first_window, 3);
      for (int64_t w = 3; w < 8; ++w) {
        for (int64_t tile = 0; tile < panels.num_tiles; ++tile) {
          const double* got = chunk->Panel(w, tile);
          const double* want = panels.Panel(w, tile);
          for (int64_t c = 0; c < b * kCorrTile; ++c) {
            ASSERT_EQ(Bits(got[c]), Bits(want[c]))
                << "w=" << w << " tile=" << tile << " cell " << c;
          }
        }
      }
    }
  }
}

// The core equivalence claim of the blocked build: identical sketch
// semantics as the scalar reference path, and per-window correlations equal
// to the two-pass PearsonNaive oracle — including eps-guarded windows.
TEST(BlockedIndexBuildTest, MatchesScalarPathAndPearsonNaive) {
  const int64_t n = 9;
  const int64_t b = 24;
  const int64_t nb = 12;
  TimeSeriesMatrix data = HostileData(n, nb * b, b, 23);

  BasicWindowIndexOptions blocked;
  blocked.basic_window = b;
  BasicWindowIndexOptions scalar = blocked;
  scalar.use_blocked_kernel = false;

  const auto blocked_index = BasicWindowIndex::Build(data, blocked);
  const auto scalar_index = BasicWindowIndex::Build(data, scalar);
  ASSERT_TRUE(blocked_index.ok());
  ASSERT_TRUE(scalar_index.ok());

  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      const int64_t p = BasicWindowIndex::PairId(i, j, n);
      const auto oracle =
          ComputeBasicWindowCorrelations(data.Row(i), data.Row(j), b);
      for (int64_t w = 0; w < nb; ++w) {
        EXPECT_NEAR(1.0 - blocked_index->OneMinusCorrRange(p, w, w + 1),
                    oracle[static_cast<size_t>(w)], 1e-9)
            << "pair (" << i << ", " << j << ") window " << w;
        EXPECT_NEAR(1.0 - blocked_index->OneMinusCorrRange(p, w, w + 1),
                    1.0 - scalar_index->OneMinusCorrRange(p, w, w + 1), 1e-9);
        EXPECT_NEAR(blocked_index->DotRange(p, w, w + 1),
                    scalar_index->DotRange(p, w, w + 1), 1e-7)
            << "pair (" << i << ", " << j << ") window " << w;
      }
      // Aligned range correlations (the engine hot path) against the
      // two-pass oracle over the raw columns.
      for (const auto& [lo, hi] : {std::pair<int64_t, int64_t>{0, nb},
                                   {2, 7},
                                   {nb - 3, nb}}) {
        const double expected =
            PearsonNaive(data.RowRange(i, lo * b, (hi - lo) * b),
                         data.RowRange(j, lo * b, (hi - lo) * b));
        EXPECT_NEAR(blocked_index->PairRangeCorrelation(p, lo, hi), expected,
                    1e-9)
            << "pair (" << i << ", " << j << ") range [" << lo << ", " << hi
            << ")";
      }
    }
  }
}

TEST(BlockedIndexBuildTest, ThreadedBuildIsBitIdentical) {
  // More series than one tile so several (window, tile) tasks exist.
  const int64_t n = 101;
  const int64_t b = 8;
  const int64_t nb = 6;
  Rng rng(29);
  TimeSeriesMatrix data = GenerateWhiteNoise(n, nb * b, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = b;
  const auto sequential = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(sequential.ok());
  for (const int threads : {2, 5}) {
    ThreadPool pool(threads);
    const auto parallel = BasicWindowIndex::Build(data, options, &pool);
    ASSERT_TRUE(parallel.ok());
    for (int64_t p = 0; p < sequential->num_pairs(); ++p) {
      for (int64_t w = 0; w < nb; ++w) {
        EXPECT_DOUBLE_EQ(sequential->DotRange(p, w, w + 1),
                         parallel->DotRange(p, w, w + 1));
        EXPECT_DOUBLE_EQ(sequential->OneMinusCorrRange(p, w, w + 1),
                         parallel->OneMinusCorrRange(p, w, w + 1));
      }
    }
  }
}

// The Eq. 2 jump search binary-searches OneMinusCorrRange(p, w0, w0 + j·m)
// over j, so every pair's one-minus-correlation prefix row must be
// non-decreasing: each basic window adds 1 - c with c clamped to [-1, 1].
// This is also what lets any probe order of that search return the same
// jump. Checked for both builds, over more series than one kernel tile and
// a window count with a partial batch, on data with exactly correlated
// (c = 1), anti-correlated (c = -1) and degenerate (c = 0) windows.
TEST(BlockedIndexBuildTest, OneMinusCorrPrefixIsNonDecreasing) {
  const int64_t n = kCorrTile + 5;
  const int64_t b = 8;
  const int64_t nb = 21;
  TimeSeriesMatrix data = HostileData(n, nb * b, b, 41);
  for (int64_t t = 0; t < data.length(); ++t) {
    data.Set(4, t, -data.Get(1, t));  // exactly anti-correlated with 1 and 2
  }
  for (const bool blocked : {true, false}) {
    BasicWindowIndexOptions options;
    options.basic_window = b;
    options.use_blocked_kernel = blocked;
    const auto index = BasicWindowIndex::Build(data, options);
    ASSERT_TRUE(index.ok());
    for (int64_t p = 0; p < index->num_pairs(); ++p) {
      for (int64_t w = 0; w < nb; ++w) {
        // Slot 0 holds 0.0, so a range from 0 is the prefix slot itself.
        ASSERT_GE(index->OneMinusCorrRange(p, 0, w + 1),
                  index->OneMinusCorrRange(p, 0, w))
            << (blocked ? "blocked" : "scalar") << " build, pair " << p
            << ", slot " << w + 1;
      }
    }
  }
}

TEST(ExactCorrelationMatrixTest, MatchesPearsonNaiveOnHostileData) {
  const int64_t n = 61;  // spans two kernel tiles
  const int64_t length = 200;
  TimeSeriesMatrix data = HostileData(n, length, 24, 31);
  const auto matrix = ExactCorrelationMatrix(data, 8, 144);
  ASSERT_TRUE(matrix.ok());
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      const double expected =
          PearsonNaive(data.RowRange(i, 8, 144), data.RowRange(j, 8, 144));
      EXPECT_NEAR((*matrix)[static_cast<size_t>(i * n + j)], expected, 1e-9)
          << "(" << i << ", " << j << ")";
    }
  }
}

// Engine-level acceptance: the new build path must not change which edges
// any engine reports, at any thread count.
TEST(EngineEdgeSetTest, UnchangedByBlockedBuildAcrossThreadCounts) {
  const int64_t n = 24;
  const int64_t b = 16;
  TimeSeriesMatrix data = HostileData(n, b * 40, b, 37);

  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = b * 8;
  query.step = b * 2;
  query.threshold = 0.35;
  query.absolute = true;

  // Oracle edge set from the two-pass PearsonNaive, directly off raw data —
  // deliberately NOT an engine, so the oracle shares no code with the
  // blocked kernels under test (NaiveEngine itself now routes through
  // ExactCorrelationMatrix).
  CorrelationMatrixSeries truth(query, n);
  for (int64_t k = 0; k < truth.num_windows(); ++k) {
    const int64_t window_start = query.start + k * query.step;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i + 1; j < n; ++j) {
        const double c =
            PearsonNaive(data.RowRange(i, window_start, query.window),
                         data.RowRange(j, window_start, query.window));
        if (query.IsEdge(c)) {
          truth.MutableWindow(k)->push_back(
              Edge{static_cast<int32_t>(i), static_cast<int32_t>(j), c});
        }
      }
    }
  }
  ASSERT_GT(truth.TotalEdges(), 0);

  // NaiveEngine (which routes through the blocked exact kernel) must agree
  // with the independent oracle: same edges, values within roundoff.
  NaiveEngine naive;
  ASSERT_TRUE(naive.Prepare(data).ok());
  const auto naive_result = naive.Query(query);
  ASSERT_TRUE(naive_result.ok());
  for (int64_t k = 0; k < truth.num_windows(); ++k) {
    const auto expected = truth.WindowEdges(k);
    const auto actual = naive_result->WindowEdges(k);
    ASSERT_EQ(actual.size(), expected.size()) << "window " << k;
    for (size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ(actual[e].i, expected[e].i);
      EXPECT_EQ(actual[e].j, expected[e].j);
      EXPECT_NEAR(actual[e].value, expected[e].value, 1e-9);
    }
  }

  for (const int threads : {1, 2, 4}) {
    for (const bool jumping : {false, true}) {
      DangoronOptions options;
      options.basic_window = b;
      options.enable_jumping = jumping;
      options.num_threads = threads;
      DangoronEngine engine(options);
      ASSERT_TRUE(engine.Prepare(data).ok());
      const auto result = engine.Query(query);
      ASSERT_TRUE(result.ok());
      ASSERT_EQ(result->num_windows(), truth.num_windows());
      int64_t mismatched_cells = 0;
      for (int64_t k = 0; k < truth.num_windows(); ++k) {
        const auto expected = truth.WindowEdges(k);
        const auto actual = result->WindowEdges(k);
        if (!jumping) {
          // Incremental mode is exact: identical edge sets, equal values.
          ASSERT_EQ(actual.size(), expected.size())
              << "threads=" << threads << " window " << k;
          for (size_t e = 0; e < expected.size(); ++e) {
            EXPECT_EQ(actual[e].i, expected[e].i);
            EXPECT_EQ(actual[e].j, expected[e].j);
            EXPECT_NEAR(actual[e].value, expected[e].value, 1e-9);
          }
        } else {
          mismatched_cells += std::abs(static_cast<int64_t>(actual.size()) -
                                       static_cast<int64_t>(expected.size()));
        }
      }
      if (jumping) {
        // Jump mode is approximate by design; on this workload it must
        // still find the overwhelming majority of edges.
        EXPECT_LT(mismatched_cells, truth.TotalEdges() / 10)
            << "threads=" << threads;
      }
    }
  }
}

}  // namespace
}  // namespace dangoron
