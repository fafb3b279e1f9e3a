// Randomized cross-engine property suite: for arbitrary workloads and query
// geometries, the exact engines must agree bit-for-bit on edge sets, engine
// counters must satisfy their accounting invariants, and the approximate
// modes must degrade only in the documented directions.

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "engine/dangoron_engine.h"
#include "engine/naive_engine.h"
#include "engine/tsubasa_engine.h"
#include "network/accuracy.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

// A workload with both strong positive and strong *negative* structure:
// three groups — a positively coupled factor group, an anti-coupled group
// (negative loading on the same factor), and independent noise.
TimeSeriesMatrix SignedWorkload(int64_t n, int64_t length, uint64_t seed) {
  Rng rng(seed);
  TimeSeriesMatrix data(n, length);
  std::vector<double> factor(static_cast<size_t>(length));
  // A slowly varying factor keeps window correlations persistent, which
  // exercises the jump machinery in both directions.
  double state = rng.NextGaussian();
  for (double& v : factor) {
    state = 0.9 * state + std::sqrt(1 - 0.81) * rng.NextGaussian();
    v = state;
  }
  for (int64_t s = 0; s < n; ++s) {
    const int group = static_cast<int>(s % 3);
    const double loading = group == 0 ? 0.9 : (group == 1 ? -0.9 : 0.0);
    const double noise = std::sqrt(1.0 - loading * loading);
    std::span<double> row = data.Row(s);
    for (int64_t t = 0; t < length; ++t) {
      row[static_cast<size_t>(t)] =
          loading * factor[static_cast<size_t>(t)] +
          noise * rng.NextGaussian();
    }
  }
  return data;
}

struct FuzzCase {
  uint64_t seed;
  int64_t n;
  int64_t b;
  int64_t window_bw;
  int64_t step_bw;
  double beta;
  bool absolute;
};

class EngineFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(EngineFuzz, ExactEnginesAgreeAndCountersAddUp) {
  const FuzzCase fuzz = GetParam();
  const int64_t length = fuzz.b * (fuzz.window_bw + 12 * fuzz.step_bw + 3);
  const TimeSeriesMatrix data = SignedWorkload(fuzz.n, length, fuzz.seed);

  SlidingQuery query;
  query.start = 0;
  query.end = (length / fuzz.b) * fuzz.b;
  query.window = fuzz.window_bw * fuzz.b;
  query.step = fuzz.step_bw * fuzz.b;
  query.threshold = fuzz.beta;
  query.absolute = fuzz.absolute;
  ASSERT_TRUE(query.Validate(data.length()).ok());

  NaiveEngine naive;
  ASSERT_TRUE(naive.Prepare(data).ok());
  const auto truth = naive.Query(query);
  ASSERT_TRUE(truth.ok());

  TsubasaOptions tsubasa_options;
  tsubasa_options.basic_window = fuzz.b;
  TsubasaEngine tsubasa(tsubasa_options);
  ASSERT_TRUE(tsubasa.Prepare(data).ok());
  const auto tsubasa_result = tsubasa.Query(query);
  ASSERT_TRUE(tsubasa_result.ok());

  DangoronOptions exact_options;
  exact_options.basic_window = fuzz.b;
  exact_options.enable_jumping = false;
  DangoronEngine exact(exact_options);
  ASSERT_TRUE(exact.Prepare(data).ok());
  const auto exact_result = exact.Query(query);
  ASSERT_TRUE(exact_result.ok());

  // Exact engines agree on edge sets and values.
  ASSERT_EQ(truth->num_windows(), exact_result->num_windows());
  for (int64_t k = 0; k < truth->num_windows(); ++k) {
    const auto a = truth->WindowEdges(k);
    const auto b = tsubasa_result->WindowEdges(k);
    const auto c = exact_result->WindowEdges(k);
    ASSERT_EQ(a.size(), b.size()) << "window " << k;
    ASSERT_EQ(a.size(), c.size()) << "window " << k;
    for (size_t e = 0; e < a.size(); ++e) {
      EXPECT_EQ(a[e].i, b[e].i);
      EXPECT_EQ(a[e].j, c[e].j);
      EXPECT_NEAR(a[e].value, b[e].value, 1e-8);
      EXPECT_NEAR(a[e].value, c[e].value, 1e-8);
      // Every reported edge actually clears the threshold rule.
      EXPECT_TRUE(query.IsEdge(a[e].value));
    }
  }

  // Jump mode: counters must account for every cell; edges are a subset of
  // the exact edges with identical values (jump mode only skips).
  DangoronOptions jump_options;
  jump_options.basic_window = fuzz.b;
  jump_options.enable_jumping = true;
  DangoronEngine jump(jump_options);
  ASSERT_TRUE(jump.Prepare(data).ok());
  const auto jump_result = jump.Query(query);
  ASSERT_TRUE(jump_result.ok());
  const EngineStats& stats = jump.stats();
  EXPECT_EQ(stats.cells_evaluated + stats.cells_jumped, stats.cells_total);
  EXPECT_EQ(stats.cells_total,
            query.NumWindows() * fuzz.n * (fuzz.n - 1) / 2);

  const auto accuracy = CompareSeries(*truth, *jump_result);
  ASSERT_TRUE(accuracy.ok());
  EXPECT_EQ(accuracy->total.false_positives, 0)
      << "jump mode must never invent edges";
  EXPECT_LT(accuracy->total.value_rmse, 1e-9)
      << "reported edges carry exact values";
  // Soft floor: these fuzz geometries include tiny windows (down to 30
  // samples) where single-window correlations are noisy and some flicker
  // mispruning is expected; the paper-bar (>0.9) is asserted on the
  // evaluation workload in engine_test. The hard guarantees above (no
  // false positives, exact values) hold regardless.
  EXPECT_GT(accuracy->total.F1(), 0.8);
}

INSTANTIATE_TEST_SUITE_P(
    Fuzz, EngineFuzz,
    ::testing::Values(
        FuzzCase{101, 6, 6, 5, 1, 0.6, false},
        FuzzCase{102, 9, 8, 4, 2, 0.75, false},
        FuzzCase{103, 12, 12, 6, 1, 0.8, false},
        FuzzCase{104, 7, 10, 8, 4, 0.5, false},
        FuzzCase{105, 6, 6, 5, 1, 0.6, true},
        FuzzCase{106, 9, 8, 4, 2, 0.75, true},
        FuzzCase{107, 12, 12, 6, 1, 0.8, true},
        FuzzCase{108, 7, 10, 8, 4, 0.5, true},
        FuzzCase{109, 15, 4, 10, 5, 0.9, true},
        FuzzCase{110, 5, 24, 3, 1, 0.7, true}));

TEST(AbsoluteModeTest, AntiCorrelatedEdgesAreFound) {
  // Two series at corr ~ -0.9: invisible to the plain threshold, an edge in
  // absolute mode.
  Rng rng(7);
  std::vector<double> x, y;
  GenerateCorrelatedPair(24 * 20, -0.9, &rng, &x, &y);
  auto matrix = TimeSeriesMatrix::FromRows({x, y});
  ASSERT_TRUE(matrix.ok());

  SlidingQuery query;
  query.start = 0;
  query.end = matrix->length();
  query.window = 24 * 5;
  query.step = 24;
  query.threshold = 0.6;

  DangoronEngine engine;
  ASSERT_TRUE(engine.Prepare(*matrix).ok());

  query.absolute = false;
  auto plain = engine.Query(query);
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->TotalEdges(), 0);

  query.absolute = true;
  auto absolute = engine.Query(query);
  ASSERT_TRUE(absolute.ok());
  EXPECT_EQ(absolute->TotalEdges(), absolute->num_windows());
  for (int64_t k = 0; k < absolute->num_windows(); ++k) {
    ASSERT_EQ(absolute->WindowEdges(k).size(), 1u);
    EXPECT_LT(absolute->WindowEdges(k)[0].value, -0.6);
  }
}

TEST(AbsoluteModeTest, ValidateRejectsNegativeBeta) {
  SlidingQuery query;
  query.start = 0;
  query.end = 100;
  query.window = 10;
  query.step = 10;
  query.threshold = -0.5;
  query.absolute = true;
  EXPECT_FALSE(query.Validate(100).ok());
  query.absolute = false;
  EXPECT_TRUE(query.Validate(100).ok());
}

TEST(AbsoluteModeTest, AboveJumpHoldsNegativeEdges) {
  // A persistently anti-correlated pair: above-jumping in absolute mode
  // must keep emitting the (negative) edge across skipped windows.
  Rng rng(13);
  std::vector<double> x, y;
  GenerateCorrelatedPair(24 * 40, -0.995, &rng, &x, &y);
  auto matrix = TimeSeriesMatrix::FromRows({x, y});
  ASSERT_TRUE(matrix.ok());

  SlidingQuery query;
  query.start = 0;
  query.end = matrix->length();
  query.window = 24 * 20;
  query.step = 24;
  query.threshold = 0.6;
  query.absolute = true;

  DangoronOptions options;
  options.enable_jumping = true;
  options.enable_above_jumping = true;
  DangoronEngine engine(options);
  ASSERT_TRUE(engine.Prepare(*matrix).ok());
  auto result = engine.Query(query);
  ASSERT_TRUE(result.ok());
  for (int64_t k = 0; k < result->num_windows(); ++k) {
    ASSERT_EQ(result->WindowEdges(k).size(), 1u) << "window " << k;
    EXPECT_LT(result->WindowEdges(k)[0].value, -0.6);
  }
  EXPECT_GT(engine.stats().cells_jumped, 0);
}

TEST(ThreadDeterminismFuzz, ManyThreadCountsSameResult) {
  const TimeSeriesMatrix data = SignedWorkload(10, 24 * 30, 31);
  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 24 * 6;
  query.step = 24;
  query.threshold = 0.5;
  query.absolute = true;

  std::vector<CorrelationMatrixSeries> results;
  for (const int threads : {1, 2, 3, 8}) {
    DangoronOptions options;
    options.num_threads = threads;
    DangoronEngine engine(options);
    ASSERT_TRUE(engine.Prepare(data).ok());
    auto result = engine.Query(query);
    ASSERT_TRUE(result.ok());
    results.push_back(std::move(*result));
  }
  for (size_t r = 1; r < results.size(); ++r) {
    ASSERT_EQ(results[0].num_windows(), results[r].num_windows());
    for (int64_t k = 0; k < results[0].num_windows(); ++k) {
      const auto a = results[0].WindowEdges(k);
      const auto b = results[r].WindowEdges(k);
      ASSERT_EQ(a.size(), b.size());
      for (size_t e = 0; e < a.size(); ++e) {
        EXPECT_EQ(a[e].i, b[e].i);
        EXPECT_EQ(a[e].j, b[e].j);
        EXPECT_DOUBLE_EQ(a[e].value, b[e].value);
      }
    }
  }
}

TEST(FailureInjectionTest, ConstantSeriesNeverEdges) {
  // A dead sensor (constant output) must produce no edges in any engine,
  // not NaNs or crashes.
  Rng rng(17);
  TimeSeriesMatrix data = GenerateWhiteNoise(4, 24 * 10, &rng);
  for (int64_t t = 0; t < data.length(); ++t) {
    data.Set(0, t, 5.0);  // dead sensor
  }
  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 24 * 3;
  query.step = 24;
  // Strictly positive threshold: the dead sensor's conventional corr of 0
  // must stay below it (at exactly 0.0 the convention itself would match).
  query.threshold = 0.1;
  for (const bool absolute : {false, true}) {
    query.absolute = absolute;
    NaiveEngine naive;
    ASSERT_TRUE(naive.Prepare(data).ok());
    auto truth = naive.Query(query);
    ASSERT_TRUE(truth.ok());
    DangoronEngine dangoron;
    ASSERT_TRUE(dangoron.Prepare(data).ok());
    auto result = dangoron.Query(query);
    ASSERT_TRUE(result.ok());
    for (int64_t k = 0; k < result->num_windows(); ++k) {
      for (const Edge& edge : result->WindowEdges(k)) {
        EXPECT_NE(edge.i, 0) << "dead sensor produced an edge";
        EXPECT_TRUE(std::isfinite(edge.value));
      }
      ASSERT_EQ(result->WindowEdges(k).size(),
                truth->WindowEdges(k).size());
    }
  }
}

TEST(FailureInjectionTest, ExtremeThresholds) {
  const TimeSeriesMatrix data = SignedWorkload(6, 24 * 12, 19);
  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = 24 * 4;
  query.step = 24;

  DangoronEngine engine;
  ASSERT_TRUE(engine.Prepare(data).ok());

  // threshold -1: every pair of every window is an edge.
  query.threshold = -1.0;
  auto all = engine.Query(query);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->TotalEdges(), all->num_windows() * 6 * 5 / 2);

  // threshold 1: nothing but exact-1 correlations qualify (none here).
  query.threshold = 1.0;
  auto none = engine.Query(query);
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->TotalEdges(), 0);
}

}  // namespace
}  // namespace dangoron
