#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "corr/pearson.h"
#include "engine/dangoron_engine.h"
#include "engine/naive_engine.h"
#include "engine/parcorr_engine.h"
#include "engine/tsubasa_engine.h"
#include "network/accuracy.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

// Climate-like small dataset shared by the equivalence suites.
TimeSeriesMatrix SmallClimate(int64_t stations, int64_t hours,
                              uint64_t seed) {
  ClimateSpec spec;
  spec.num_stations = stations;
  spec.num_hours = hours;
  spec.seed = seed;
  auto dataset = GenerateClimate(spec);
  CHECK(dataset.ok());
  return std::move(dataset->data);
}

// Asserts two engine results describe identical edge sets with values equal
// to `tolerance`.
void ExpectSeriesEqual(const CorrelationMatrixSeries& a,
                       const CorrelationMatrixSeries& b, double tolerance) {
  ASSERT_EQ(a.num_windows(), b.num_windows());
  for (int64_t k = 0; k < a.num_windows(); ++k) {
    const auto edges_a = a.WindowEdges(k);
    const auto edges_b = b.WindowEdges(k);
    ASSERT_EQ(edges_a.size(), edges_b.size()) << "window " << k;
    for (size_t e = 0; e < edges_a.size(); ++e) {
      EXPECT_EQ(edges_a[e].i, edges_b[e].i) << "window " << k;
      EXPECT_EQ(edges_a[e].j, edges_b[e].j) << "window " << k;
      EXPECT_NEAR(edges_a[e].value, edges_b[e].value, tolerance)
          << "window " << k;
    }
  }
}

// ----------------------------------------------------------- SlidingQuery --

TEST(SlidingQueryTest, NumWindows) {
  SlidingQuery query;
  query.start = 0;
  query.end = 100;
  query.window = 20;
  query.step = 10;
  EXPECT_EQ(query.NumWindows(), 9);
  query.end = 20;
  EXPECT_EQ(query.NumWindows(), 1);
  query.end = 19;
  EXPECT_EQ(query.NumWindows(), 0);
}

TEST(SlidingQueryTest, ValidateCatchesBadQueries) {
  SlidingQuery query;
  query.start = 0;
  query.end = 100;
  query.window = 20;
  query.step = 10;
  EXPECT_TRUE(query.Validate(100).ok());
  EXPECT_FALSE(query.Validate(50).ok());  // end beyond data

  query.window = 0;
  EXPECT_FALSE(query.Validate(100).ok());
  query.window = 20;
  query.step = 0;
  EXPECT_FALSE(query.Validate(100).ok());
  query.step = 10;
  query.threshold = 1.5;
  EXPECT_FALSE(query.Validate(100).ok());
  query.threshold = 0.5;
  query.start = 90;
  EXPECT_FALSE(query.Validate(100).ok());  // range < window
}

TEST(SlidingQueryTest, ToStringIncludesAbsoluteFlag) {
  SlidingQuery query;
  query.start = 0;
  query.end = 100;
  query.window = 20;
  query.step = 10;
  EXPECT_NE(query.ToString().find("abs=off"), std::string::npos);
  query.absolute = true;
  EXPECT_NE(query.ToString().find("abs=on"), std::string::npos);
}

TEST(SlidingQueryTest, ValidateReportsOffendingFieldValues) {
  SlidingQuery query;
  query.start = 90;  // range [90, 100) of 10 columns < window 20
  query.end = 100;
  query.window = 20;
  query.step = 10;
  const Status status = query.Validate(100);
  ASSERT_FALSE(status.ok());
  // The multi-field failure names every participating value, not just one.
  EXPECT_NE(status.message().find("90"), std::string::npos);
  EXPECT_NE(status.message().find("100"), std::string::npos);
  EXPECT_NE(status.message().find("20"), std::string::npos);
  EXPECT_NE(status.message().find(query.ToString()), std::string::npos);
}

TEST(CorrelationSeriesTest, TotalEdgesCountsEveryWindow) {
  SlidingQuery query;
  query.start = 0;
  query.end = 10;
  query.window = 10;
  query.step = 10;
  CorrelationMatrixSeries series(query, 3);
  series.MutableWindow(0)->push_back(Edge{0, 2, 0.9});
  EXPECT_EQ(series.TotalEdges(), 1);
}

// ------------------------------------------------- Engine lifecycle guards --

TEST(EngineGuardsTest, QueryBeforePrepareFails) {
  SlidingQuery query;
  query.start = 0;
  query.end = 48;
  query.window = 24;
  query.step = 24;

  NaiveEngine naive;
  EXPECT_FALSE(naive.Query(query).ok());
  TsubasaEngine tsubasa;
  EXPECT_FALSE(tsubasa.Query(query).ok());
  DangoronEngine dangoron;
  EXPECT_FALSE(dangoron.Query(query).ok());
  ParCorrEngine parcorr;
  EXPECT_FALSE(parcorr.Query(query).ok());
}

TEST(EngineGuardsTest, MissingValuesRejected) {
  Rng rng(1);
  TimeSeriesMatrix data = GenerateWhiteNoise(3, 48, &rng);
  data.Set(0, 5, MissingValue());
  EXPECT_FALSE(NaiveEngine().Prepare(data).ok());
  EXPECT_FALSE(TsubasaEngine().Prepare(data).ok());
  EXPECT_FALSE(DangoronEngine().Prepare(data).ok());
  EXPECT_FALSE(ParCorrEngine().Prepare(data).ok());
}

TEST(EngineGuardsTest, DangoronRequiresAlignment) {
  Rng rng(2);
  TimeSeriesMatrix data = GenerateWhiteNoise(3, 480, &rng);
  DangoronOptions options;
  options.basic_window = 24;
  DangoronEngine engine(options);
  ASSERT_TRUE(engine.Prepare(data).ok());

  SlidingQuery query;
  query.start = 0;
  query.end = 480;
  query.window = 48;
  query.step = 12;  // not a multiple of 24
  EXPECT_FALSE(engine.Query(query).ok());

  query.step = 24;
  query.window = 36;  // not a multiple of 24
  EXPECT_FALSE(engine.Query(query).ok());

  query.window = 48;
  query.start = 12;  // not aligned
  query.end = 468;
  EXPECT_FALSE(engine.Query(query).ok());

  query.start = 0;
  query.end = 480;
  EXPECT_TRUE(engine.Query(query).ok());
}

// --------------------------------------- Exact-engine equivalence sweeps --

// (num_series, basic_window, window_bw, step_bw, threshold)
using EquivalenceParam = std::tuple<int64_t, int64_t, int64_t, int64_t, double>;

class ExactEquivalenceSweep
    : public ::testing::TestWithParam<EquivalenceParam> {};

TEST_P(ExactEquivalenceSweep, NaiveTsubasaDangoronAgree) {
  const auto [n, b, window_bw, step_bw, beta] = GetParam();
  const int64_t length = b * 40;
  TimeSeriesMatrix data = SmallClimate(n, length, 7000 + n * 13 + b);

  SlidingQuery query;
  query.start = 0;
  query.end = length;
  query.window = window_bw * b;
  query.step = step_bw * b;
  query.threshold = beta;

  NaiveEngine naive;
  ASSERT_TRUE(naive.Prepare(data).ok());
  auto truth = naive.Query(query);
  ASSERT_TRUE(truth.ok());

  TsubasaOptions tsubasa_options;
  tsubasa_options.basic_window = b;
  TsubasaEngine tsubasa(tsubasa_options);
  ASSERT_TRUE(tsubasa.Prepare(data).ok());
  auto tsubasa_result = tsubasa.Query(query);
  ASSERT_TRUE(tsubasa_result.ok());
  ExpectSeriesEqual(*truth, *tsubasa_result, 1e-8);

  DangoronOptions dangoron_options;
  dangoron_options.basic_window = b;
  dangoron_options.enable_jumping = false;  // incremental = exact mode
  DangoronEngine dangoron(dangoron_options);
  ASSERT_TRUE(dangoron.Prepare(data).ok());
  auto dangoron_result = dangoron.Query(query);
  ASSERT_TRUE(dangoron_result.ok());
  ExpectSeriesEqual(*truth, *dangoron_result, 1e-8);

  // Sanity: every engine saw the same cell universe.
  EXPECT_EQ(naive.stats().cells_total, tsubasa.stats().cells_total);
  EXPECT_EQ(naive.stats().cells_total, dangoron.stats().cells_total);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ExactEquivalenceSweep,
    ::testing::Values(
        EquivalenceParam{4, 6, 4, 1, 0.5},
        EquivalenceParam{6, 8, 6, 2, 0.7},
        EquivalenceParam{8, 12, 10, 1, 0.8},
        EquivalenceParam{5, 24, 7, 3, 0.9},
        EquivalenceParam{10, 6, 12, 4, 0.6},
        EquivalenceParam{3, 10, 20, 5, 0.0},   // threshold 0: dense output
        EquivalenceParam{7, 8, 5, 5, 0.95}));  // disjoint windows

TEST(TsubasaUnalignedTest, MatchesNaiveOnUnalignedQueries) {
  TimeSeriesMatrix data = SmallClimate(5, 600, 99);
  TsubasaOptions options;
  options.basic_window = 24;
  TsubasaEngine tsubasa(options);
  NaiveEngine naive;
  ASSERT_TRUE(tsubasa.Prepare(data).ok());
  ASSERT_TRUE(naive.Prepare(data).ok());

  SlidingQuery query;
  query.start = 5;       // unaligned start
  query.end = 590;       // unaligned end
  query.window = 100;    // not a multiple of 24
  query.step = 17;       // prime step
  query.threshold = 0.6;
  auto truth = naive.Query(query);
  auto result = tsubasa.Query(query);
  ASSERT_TRUE(truth.ok());
  ASSERT_TRUE(result.ok());
  ExpectSeriesEqual(*truth, *result, 1e-8);
}

// ---------------------------------------------------- Dangoron jump mode --

TEST(DangoronJumpTest, SkipsCellsAndStaysAccurate) {
  TimeSeriesMatrix data = SmallClimate(16, 24 * 120, 2024);

  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 24 * 14;
  query.step = 24;
  query.threshold = 0.8;

  DangoronOptions exact_options;
  exact_options.enable_jumping = false;
  DangoronEngine exact(exact_options);
  ASSERT_TRUE(exact.Prepare(data).ok());
  auto truth = exact.Query(query);
  ASSERT_TRUE(truth.ok());

  DangoronOptions jump_options;
  jump_options.enable_jumping = true;
  DangoronEngine jump(jump_options);
  ASSERT_TRUE(jump.Prepare(data).ok());
  auto result = jump.Query(query);
  ASSERT_TRUE(result.ok());

  // Jump mode must actually skip a nontrivial share of cells on climate
  // data with a high threshold...
  EXPECT_GT(jump.stats().cells_jumped, 0);
  EXPECT_EQ(jump.stats().cells_evaluated + jump.stats().cells_jumped,
            jump.stats().cells_total);
  // ...and stay above the paper's 90% accuracy bar.
  auto accuracy = CompareSeries(*truth, *result);
  ASSERT_TRUE(accuracy.ok());
  EXPECT_GT(accuracy->total.F1(), 0.9);
  // Edges it does report carry exact values (it only skips, never estimates).
  EXPECT_LT(accuracy->total.value_rmse, 1e-9);
}

TEST(DangoronJumpTest, MaxJumpCapsSkips) {
  TimeSeriesMatrix data = SmallClimate(8, 24 * 60, 11);
  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 24 * 7;
  query.step = 24;
  query.threshold = 0.9;

  DangoronOptions capped;
  capped.enable_jumping = true;
  capped.max_jump_steps = 2;
  DangoronEngine engine(capped);
  ASSERT_TRUE(engine.Prepare(data).ok());
  ASSERT_TRUE(engine.Query(query).ok());
  // With a cap of 2, jumps can never exceed 2 skipped cells each.
  EXPECT_LE(engine.stats().cells_jumped, engine.stats().jumps * 2);
}

TEST(DangoronJumpTest, ThresholdOneSkipsAlmostEverything) {
  TimeSeriesMatrix data = SmallClimate(8, 24 * 60, 12);
  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 24 * 7;
  query.step = 24;
  query.threshold = 1.0;  // nothing can reach an upper bound of >= 1 easily

  DangoronEngine engine;
  ASSERT_TRUE(engine.Prepare(data).ok());
  auto result = engine.Query(query);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(engine.stats().cells_jumped, engine.stats().cells_total / 2);
}

TEST(DangoronThreadingTest, MultiThreadMatchesSingleThread) {
  TimeSeriesMatrix data = SmallClimate(12, 24 * 50, 13);
  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 24 * 10;
  query.step = 24;
  query.threshold = 0.75;

  DangoronOptions single;
  single.num_threads = 1;
  DangoronEngine engine_single(single);
  ASSERT_TRUE(engine_single.Prepare(data).ok());
  auto result_single = engine_single.Query(query);
  ASSERT_TRUE(result_single.ok());

  DangoronOptions multi;
  multi.num_threads = 4;
  DangoronEngine engine_multi(multi);
  ASSERT_TRUE(engine_multi.Prepare(data).ok());
  auto result_multi = engine_multi.Query(query);
  ASSERT_TRUE(result_multi.ok());

  ExpectSeriesEqual(*result_single, *result_multi, 0.0);
  EXPECT_EQ(engine_single.stats().cells_evaluated,
            engine_multi.stats().cells_evaluated);
  EXPECT_EQ(engine_single.stats().cells_jumped,
            engine_multi.stats().cells_jumped);
}

// The jump walk at scale: 1024-pair tiles, far longer than the walk's
// prefetch distance, split over 1-4 threads and cut by pair-range
// restrictions whose bounds fall mid-tile. Every run must emit
// bit-identical windows (a restricted run: the unrestricted run's edges of
// its pair range), each already in EdgeOrder, since the emission
// concatenates tiles without sorting.
TEST(DangoronThreadingTest, JumpWalkIsDeterministicAtScale) {
  const int64_t n = 320;
  TimeSeriesMatrix data = SmallClimate(n, 24 * 60, 29);
  SlidingQuery query;
  query.start = 24 * 3;
  query.end = data.length();
  query.window = 24 * 14;
  query.step = 24;
  query.threshold = 0.8;

  DangoronOptions options;
  options.basic_window = 24;
  auto index = DangoronEngine::BuildIndex(data, options, nullptr);
  ASSERT_TRUE(index.ok());
  const int64_t num_pairs = index->num_pairs();

  // Window k of `series` as (pair id, value bits) tuples.
  auto cells = [&](const CorrelationMatrixSeries& series, int64_t k) {
    std::vector<std::pair<int64_t, uint64_t>> out;
    for (const Edge& e : series.WindowEdges(k)) {
      out.emplace_back(BasicWindowIndex::PairId(e.i, e.j, n),
                       std::bit_cast<uint64_t>(e.value));
    }
    return out;
  };

  int64_t below_only_jumped = 0;
  for (const bool above : {false, true}) {
    options.enable_above_jumping = above;
    EngineStats reference_stats;
    auto reference = DangoronEngine::QueryPrepared(options, *index, query,
                                                   nullptr, &reference_stats);
    ASSERT_TRUE(reference.ok());
    ASSERT_GT(reference->TotalEdges(), 0);
    if (above) {
      // Above-jumps fill windows ahead of the walk: make sure some happen.
      ASSERT_GT(reference_stats.cells_jumped, below_only_jumped);
    } else {
      below_only_jumped = reference_stats.cells_jumped;
      ASSERT_GT(below_only_jumped, 0);
    }

    for (const int threads : {1, 2, 3, 4}) {
      ThreadPool pool(threads);
      for (const auto& [lo, hi] :
           {std::pair<int64_t, int64_t>{0, 0},
            {1001, 7777},
            {12345, 40001},
            {num_pairs - 2999, num_pairs + 100}}) {
        SlidingQuery restricted = query;
        restricted.pair_begin = lo;
        restricted.pair_end = hi;
        EngineStats stats;
        auto result = DangoronEngine::QueryPrepared(options, *index,
                                                    restricted, &pool, &stats);
        ASSERT_TRUE(result.ok());
        const auto [range_lo, range_hi] = restricted.PairRange(num_pairs);
        ASSERT_EQ(result->num_windows(), reference->num_windows());
        for (int64_t k = 0; k < result->num_windows(); ++k) {
          const auto edges = result->WindowEdges(k);
          ASSERT_TRUE(std::is_sorted(edges.begin(), edges.end(), EdgeOrder))
              << "window " << k << ", " << threads << " threads, pairs ["
              << lo << ", " << hi << ")";
          auto expected = cells(*reference, k);
          std::erase_if(expected, [&](const auto& cell) {
            return cell.first < range_lo || cell.first >= range_hi;
          });
          ASSERT_EQ(cells(*result, k), expected)
              << "window " << k << ", above jumping " << above << ", "
              << threads << " threads, pairs [" << lo << ", " << hi << ")";
        }
        if (!restricted.HasPairRestriction()) {
          EXPECT_EQ(stats.cells_evaluated, reference_stats.cells_evaluated);
          EXPECT_EQ(stats.cells_jumped, reference_stats.cells_jumped);
        }
      }
    }
  }
}

// ----------------------------------------------------- Horizontal pruning --

TEST(DangoronHorizontalTest, PruningPreservesExactness) {
  // The horizontal bound is a theorem: with jumping off, turning pruning on
  // must not change the result at all.
  TimeSeriesMatrix data = SmallClimate(12, 24 * 40, 17);
  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 24 * 8;
  query.step = 24;
  query.threshold = 0.85;

  DangoronOptions plain;
  plain.enable_jumping = false;
  DangoronEngine engine_plain(plain);
  ASSERT_TRUE(engine_plain.Prepare(data).ok());
  auto result_plain = engine_plain.Query(query);
  ASSERT_TRUE(result_plain.ok());

  DangoronOptions pruned;
  pruned.enable_jumping = false;
  pruned.horizontal_pruning = true;
  pruned.num_pivots = 4;
  DangoronEngine engine_pruned(pruned);
  ASSERT_TRUE(engine_pruned.Prepare(data).ok());
  auto result_pruned = engine_pruned.Query(query);
  ASSERT_TRUE(result_pruned.ok());

  ExpectSeriesEqual(*result_plain, *result_pruned, 0.0);
  // And it must have pruned something on a threshold this high.
  EXPECT_GT(engine_pruned.stats().cells_horizontal_pruned, 0);
  EXPECT_GT(engine_pruned.stats().pivot_evaluations, 0);
}

// ------------------------------------------------------------- Above jump --

TEST(DangoronAboveJumpTest, PersistentEdgesSurvive) {
  // Two nearly identical series: the pair stays above threshold throughout;
  // above-jumping should skip some windows yet report the edge everywhere.
  // The above bound decays by 2*m/ns per step (worst-case entering windows),
  // so a skip requires corr0 - 2/ns >= beta: ns = 20 leaves ample room.
  Rng rng(19);
  std::vector<double> x, y;
  GenerateCorrelatedPair(24 * 40, 0.995, &rng, &x, &y);
  auto matrix = TimeSeriesMatrix::FromRows({x, y});
  ASSERT_TRUE(matrix.ok());

  SlidingQuery query;
  query.start = 0;
  query.end = matrix->length();
  query.window = 24 * 20;
  query.step = 24;
  query.threshold = 0.6;

  DangoronOptions options;
  options.enable_jumping = true;
  options.enable_above_jumping = true;
  DangoronEngine engine(options);
  ASSERT_TRUE(engine.Prepare(*matrix).ok());
  auto result = engine.Query(query);
  ASSERT_TRUE(result.ok());
  for (int64_t k = 0; k < result->num_windows(); ++k) {
    ASSERT_EQ(result->WindowEdges(k).size(), 1u) << "window " << k;
  }
  EXPECT_GT(engine.stats().cells_jumped, 0);
}

// ---------------------------------------------------------------- ParCorr --

TEST(ParCorrTest, HighDimensionSketchIsAccurateOnSeparatedData) {
  // Edge-F1 of any fixed-error estimator is bounded by how much probability
  // mass sits within its error band around the threshold, so this test uses
  // a *separated* workload: a tight factor group (pairwise corr ~0.9) and
  // independent background series (corr ~0), with beta = 0.6 in the gap.
  // At d = 512 the estimate error ~0.04 << the 0.3 margin: F1 must be ~1.
  Rng rng(21);
  const int64_t length = 24 * 60;
  TimeSeriesMatrix data(12, length);
  std::vector<double> factor(static_cast<size_t>(length));
  for (double& v : factor) {
    v = rng.NextGaussian();
  }
  for (int64_t s = 0; s < 12; ++s) {
    std::span<double> row = data.Row(s);
    for (int64_t t = 0; t < length; ++t) {
      const double noise = rng.NextGaussian();
      row[static_cast<size_t>(t)] =
          s < 6 ? 0.95 * factor[static_cast<size_t>(t)] + 0.32 * noise
                : noise;
    }
  }

  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 24 * 10;
  query.step = 24;
  query.threshold = 0.6;

  NaiveEngine naive;
  ASSERT_TRUE(naive.Prepare(data).ok());
  auto truth = naive.Query(query);
  ASSERT_TRUE(truth.ok());

  ParCorrOptions options;
  options.sketch_dim = 512;
  ParCorrEngine parcorr(options);
  ASSERT_TRUE(parcorr.Prepare(data).ok());
  auto result = parcorr.Query(query);
  ASSERT_TRUE(result.ok());

  auto accuracy = CompareSeries(*truth, *result);
  ASSERT_TRUE(accuracy.ok());
  EXPECT_GT(accuracy->total.F1(), 0.97);
}

TEST(ParCorrTest, AccuracyImprovesWithDimension) {
  TimeSeriesMatrix data = SmallClimate(10, 24 * 40, 23);
  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 24 * 8;
  query.step = 24;
  query.threshold = 0.8;

  NaiveEngine naive;
  ASSERT_TRUE(naive.Prepare(data).ok());
  auto truth = naive.Query(query);
  ASSERT_TRUE(truth.ok());

  double f1_small = 0.0;
  double f1_large = 0.0;
  for (const int dim : {8, 512}) {
    ParCorrOptions options;
    options.sketch_dim = dim;
    ParCorrEngine engine(options);
    ASSERT_TRUE(engine.Prepare(data).ok());
    auto result = engine.Query(query);
    ASSERT_TRUE(result.ok());
    auto accuracy = CompareSeries(*truth, *result);
    ASSERT_TRUE(accuracy.ok());
    (dim == 8 ? f1_small : f1_large) = accuracy->total.F1();
  }
  EXPECT_GT(f1_large, f1_small);
}

TEST(ParCorrTest, VerificationRemovesFalsePositives) {
  TimeSeriesMatrix data = SmallClimate(10, 24 * 40, 29);
  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 24 * 8;
  query.step = 24;
  query.threshold = 0.8;

  NaiveEngine naive;
  ASSERT_TRUE(naive.Prepare(data).ok());
  auto truth = naive.Query(query);
  ASSERT_TRUE(truth.ok());

  ParCorrOptions options;
  options.sketch_dim = 16;  // deliberately sloppy
  options.verify_candidates = true;
  ParCorrEngine engine(options);
  ASSERT_TRUE(engine.Prepare(data).ok());
  auto result = engine.Query(query);
  ASSERT_TRUE(result.ok());

  auto accuracy = CompareSeries(*truth, *result);
  ASSERT_TRUE(accuracy.ok());
  // Verified mode cannot produce false positives.
  EXPECT_EQ(accuracy->total.false_positives, 0);
  // Verified values are exact.
  EXPECT_LT(accuracy->total.value_rmse, 1e-9);
}

TEST(ParCorrTest, DeterministicForSeed) {
  TimeSeriesMatrix data = SmallClimate(6, 24 * 20, 31);
  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 24 * 5;
  query.step = 24;
  query.threshold = 0.7;

  ParCorrOptions options;
  options.sketch_dim = 32;
  ParCorrEngine engine_a(options);
  ParCorrEngine engine_b(options);
  ASSERT_TRUE(engine_a.Prepare(data).ok());
  ASSERT_TRUE(engine_b.Prepare(data).ok());
  auto result_a = engine_a.Query(query);
  auto result_b = engine_b.Query(query);
  ASSERT_TRUE(result_a.ok());
  ASSERT_TRUE(result_b.ok());
  ExpectSeriesEqual(*result_a, *result_b, 0.0);
}

}  // namespace
}  // namespace dangoron
