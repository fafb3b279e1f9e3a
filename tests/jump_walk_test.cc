// Pins DangoronEngine's scalar tile walk — the jumping leg of its
// window-major pass — byte for byte to the pair-major reference walk
// (eval/reference_walk.h): emitted edges, anchor values of above-jumps and
// the evaluated/jumped counters, across threshold modes, jump settings,
// thread counts and pair-range slices that cut sweep tiles. Also checks
// that a jumping query runs through the `sweep.band` failpoint of the one
// pass.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/failpoint.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "engine/dangoron_engine.h"
#include "engine/window_sink.h"
#include "eval/reference_walk.h"
#include "sketch/basic_window_index.h"

namespace dangoron {
namespace {

constexpr int64_t kBasicWindow = 8;

// Random walks whose increments load on one shared factor with mixed signs
// and strengths: pair correlations of both signs move across windows, so
// the Eq. 2 searches jump some stretches but not all.
TimeSeriesMatrix FactorWalkData(int64_t n, int64_t length, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> factor(static_cast<size_t>(length));
  for (double& f : factor) {
    f = rng.NextGaussian();
  }
  TimeSeriesMatrix data(n, length);
  for (int64_t s = 0; s < n; ++s) {
    const double loading = (s % 3 == 0 ? -0.8 : 0.9) * (s % 5) / 4.0;
    double level = rng.NextGaussian();
    for (int64_t t = 0; t < length; ++t) {
      level += loading * factor[static_cast<size_t>(t)] + rng.NextGaussian();
      data.Set(s, t, level);
    }
  }
  return data;
}

void ExpectSameBytes(const CorrelationMatrixSeries& got,
                     const CorrelationMatrixSeries& want) {
  ASSERT_EQ(got.num_windows(), want.num_windows());
  for (int64_t k = 0; k < got.num_windows(); ++k) {
    const auto a = got.WindowEdges(k);
    const auto b = want.WindowEdges(k);
    ASSERT_EQ(a.size(), b.size()) << "window " << k;
    for (size_t e = 0; e < a.size(); ++e) {
      ASSERT_EQ(a[e].i, b[e].i) << "window " << k << " edge " << e;
      ASSERT_EQ(a[e].j, b[e].j) << "window " << k << " edge " << e;
      ASSERT_EQ(std::bit_cast<uint64_t>(a[e].value),
                std::bit_cast<uint64_t>(b[e].value))
          << "window " << k << " edge " << e;
    }
  }
}

TEST(JumpWalkTest, EngineMatchesReferenceWalkAcrossTheJumpMatrix) {
  // n = 48 gives 1128 pairs: a full sweep tile plus a 104-pair remainder.
  const int64_t n = 48;
  SlidingQuery base;
  base.window = kBasicWindow * 6;
  base.step = kBasicWindow;
  base.start = 0;
  base.end = base.window + 39 * base.step;  // 40 windows
  const TimeSeriesMatrix data = FactorWalkData(n, base.end, 72001);
  DangoronOptions build;
  build.basic_window = kBasicWindow;
  auto index = DangoronEngine::BuildIndex(data, build, nullptr);
  ASSERT_TRUE(index.ok());

  const int64_t num_pairs = n * (n - 1) / 2;
  const std::vector<std::pair<int64_t, int64_t>> slices = {
      {0, 0},                                     // unrestricted
      {BasicWindowIndex::PairId(2, 7, n), 1030},  // across the tile edge
      {500, 503},  // shorter than the prefetch distance
      {1100, num_pairs}};
  EngineStats totals;
  int64_t jumps_by_above[2] = {0, 0};
  for (const bool absolute : {false, true}) {
    for (const bool above : {false, true}) {
      for (const int64_t max_jump : {0, 1, 4}) {
        DangoronOptions options = build;
        options.enable_jumping = true;
        options.enable_above_jumping = above;
        options.max_jump_steps = max_jump;
        for (const int threads : {1, 3}) {
          ThreadPool pool(threads);
          ThreadPool* pool_arg = threads > 1 ? &pool : nullptr;
          for (const auto& [pb, pe] : slices) {
            SCOPED_TRACE(testing::Message()
                         << "absolute=" << absolute << " above=" << above
                         << " max_jump=" << max_jump << " threads=" << threads
                         << " pairs=[" << pb << ", " << pe << ")");
            SlidingQuery query = base;
            query.threshold = absolute ? 0.45 : 0.35;
            query.absolute = absolute;
            query.pair_begin = pb;
            query.pair_end = pe;
            EngineStats engine_stats;
            auto engine = DangoronEngine::QueryPrepared(
                options, *index, query, pool_arg, &engine_stats);
            ASSERT_TRUE(engine.ok()) << engine.status().ToString();
            EngineStats reference_stats;
            auto reference =
                ReferenceWalk(options, *index, query, &reference_stats);
            ASSERT_TRUE(reference.ok());
            ExpectSameBytes(*engine, *reference);
            EXPECT_EQ(engine_stats.cells_evaluated,
                      reference_stats.cells_evaluated);
            EXPECT_EQ(engine_stats.cells_jumped, reference_stats.cells_jumped);
            EXPECT_EQ(engine_stats.jumps, reference_stats.jumps);
            totals.cells_evaluated += reference_stats.cells_evaluated;
            totals.cells_jumped += reference_stats.cells_jumped;
            jumps_by_above[above] += reference_stats.jumps;
          }
        }
      }
    }
  }
  // The matrix must exercise every leg: evaluated and jumped cells, and
  // above-jumps (re-reported anchor values) on top of the others.
  EXPECT_GT(totals.cells_evaluated, 0);
  EXPECT_GT(totals.cells_jumped, 0);
  EXPECT_GT(jumps_by_above[1], jumps_by_above[0]);
}

// Records the terminal status and counts windows.
class RecordingSink final : public WindowSink {
 public:
  bool OnWindow(int64_t window_index, std::vector<Edge> edges) override {
    (void)window_index;
    (void)edges;
    ++windows_;
    return true;
  }
  void OnFinish(const Status& status) override {
    finished_ = true;
    status_ = status;
  }

  int64_t windows() const { return windows_; }
  bool finished() const { return finished_; }
  const Status& status() const { return status_; }

 private:
  int64_t windows_ = 0;
  bool finished_ = false;
  Status status_ = Status::Ok();
};

// A jumping query runs through the same band loop as the exact sweep, so
// an injected band error aborts it through OnFinish before any window.
TEST(JumpWalkTest, SweepBandErrorAbortsAJumpingQuery) {
#if !DANGORON_FAILPOINTS_ENABLED
  GTEST_SKIP() << "failpoints compiled out (DANGORON_FAILPOINTS=OFF)";
#endif
  const int64_t n = 12;
  SlidingQuery query;
  query.window = kBasicWindow * 4;
  query.step = kBasicWindow;
  query.start = 0;
  query.end = query.window + 19 * query.step;
  query.threshold = 0.5;
  const TimeSeriesMatrix data = FactorWalkData(n, query.end, 72003);
  DangoronOptions options;
  options.basic_window = kBasicWindow;
  ASSERT_TRUE(options.enable_jumping);
  DangoronEngine engine(options);
  ASSERT_TRUE(engine.Prepare(data).ok());

  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("sweep.band=error:ioerror*1")
                  .ok());
  RecordingSink sink;
  const Status status = engine.QueryToSink(query, &sink);
  FailpointRegistry::Instance().DisarmAll();
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_TRUE(sink.finished());
  EXPECT_EQ(sink.status().code(), StatusCode::kIoError);
  EXPECT_EQ(sink.windows(), 0);

  // Disarmed, the same query completes.
  RecordingSink clean;
  EXPECT_TRUE(engine.QueryToSink(query, &clean).ok());
  EXPECT_EQ(clean.windows(), query.NumWindows());
}

}  // namespace
}  // namespace dangoron
