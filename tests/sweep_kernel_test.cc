// Differential and property tests of the window-major exact sweep kernel
// (corr/sweep_kernel.h) as driven by DangoronEngine in exact mode: the
// vectorized sweep must emit *bit-identical* edges to the scalar pair-major
// reference walk (eval/reference_walk.h, the oracle) for every threshold mode,
// degenerate input, tile-remainder shape, and thread count — and match
// NaiveEngine within the usual sketch-combination tolerance. The engine-level
// time-to-first-window property (a cancelled-at-window-0 query does one
// window's work, not the whole sweep's) is asserted via EngineStats.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "corr/sweep_kernel.h"
#include "engine/dangoron_engine.h"
#include "engine/naive_engine.h"
#include "engine/window_sink.h"
#include "eval/reference_walk.h"
#include "sketch/basic_window_index.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

constexpr int64_t kBasicWindow = 8;

TimeSeriesMatrix RandomWalkData(int64_t n, int64_t length, uint64_t seed) {
  Rng rng(seed);
  TimeSeriesMatrix data(n, length);
  for (int64_t s = 0; s < n; ++s) {
    double level = rng.NextGaussian();
    for (int64_t t = 0; t < length; ++t) {
      level += 0.3 * rng.NextGaussian();
      data.Set(s, t, level);
    }
  }
  return data;
}

SlidingQuery SweepQuery(int64_t length, double threshold, bool absolute) {
  SlidingQuery query;
  query.start = 0;
  query.end = length;
  query.window = kBasicWindow * 5;
  query.step = kBasicWindow * 2;
  query.threshold = threshold;
  query.absolute = absolute;
  return query;
}

DangoronOptions ExactOptions(int32_t threads = 1) {
  DangoronOptions options;
  options.basic_window = kBasicWindow;
  options.enable_jumping = false;
  options.num_threads = threads;
  return options;
}

CorrelationMatrixSeries RunDangoron(const TimeSeriesMatrix& data,
                                    const SlidingQuery& query,
                                    int32_t threads) {
  DangoronEngine engine(ExactOptions(threads));
  CHECK(engine.Prepare(data).ok());
  auto result = engine.Query(query);
  CHECK(result.ok());
  return std::move(*result);
}

// The scalar pair-major oracle over the same sketch the engine builds.
CorrelationMatrixSeries RunReference(const TimeSeriesMatrix& data,
                                     const SlidingQuery& query,
                                     const DangoronOptions& options) {
  auto index = DangoronEngine::BuildIndex(data, options, nullptr);
  CHECK(index.ok());
  auto result = ReferenceWalk(options, *index, query);
  CHECK(result.ok());
  return std::move(*result);
}

// The load-bearing differential property: bitwise-equal edges (operator==
// on Edge compares the double exactly), not tolerance-equal.
void ExpectBitIdentical(const CorrelationMatrixSeries& sweep,
                        const CorrelationMatrixSeries& scalar) {
  ASSERT_EQ(sweep.num_windows(), scalar.num_windows());
  for (int64_t k = 0; k < sweep.num_windows(); ++k) {
    const auto a = sweep.WindowEdges(k);
    const auto b = scalar.WindowEdges(k);
    ASSERT_EQ(a.size(), b.size()) << "window " << k;
    for (size_t e = 0; e < a.size(); ++e) {
      EXPECT_EQ(a[e], b[e]) << "window " << k << " edge " << e;
    }
  }
}

void ExpectMatchesNaive(const CorrelationMatrixSeries& got,
                        const TimeSeriesMatrix& data,
                        const SlidingQuery& query) {
  NaiveEngine naive;
  CHECK(naive.Prepare(data).ok());
  auto truth = naive.Query(query);
  CHECK(truth.ok());
  ASSERT_EQ(got.num_windows(), truth->num_windows());
  for (int64_t k = 0; k < got.num_windows(); ++k) {
    const auto a = got.WindowEdges(k);
    const auto b = truth->WindowEdges(k);
    ASSERT_EQ(a.size(), b.size()) << "window " << k;
    for (size_t e = 0; e < a.size(); ++e) {
      EXPECT_EQ(a[e].i, b[e].i) << "window " << k;
      EXPECT_EQ(a[e].j, b[e].j) << "window " << k;
      EXPECT_NEAR(a[e].value, b[e].value, 1e-8) << "window " << k;
    }
  }
}

TEST(SweepKernelTest, BitIdenticalToScalarPairMajorAcrossThresholds) {
  const int64_t length = kBasicWindow * 24;
  // n=19 makes every fixed-i run hit a non-multiple-of-8 vector tail.
  const TimeSeriesMatrix data = RandomWalkData(19, length, 71001);
  for (const bool absolute : {false, true}) {
    for (const double threshold : {0.1, 0.35, 0.8}) {
      SCOPED_TRACE(testing::Message()
                   << "absolute=" << absolute << " threshold=" << threshold);
      const SlidingQuery query = SweepQuery(length, threshold, absolute);
      const auto sweep = RunDangoron(data, query, 1);
      const auto scalar = RunReference(data, query, ExactOptions());
      ExpectBitIdentical(sweep, scalar);
      ExpectMatchesNaive(sweep, data, query);
    }
  }
}

TEST(SweepKernelTest, NegativeThresholdAcceptsEveryPairIdentically) {
  const int64_t length = kBasicWindow * 12;
  const int64_t n = 9;
  const TimeSeriesMatrix data = RandomWalkData(n, length, 71002);
  SlidingQuery query = SweepQuery(length, -1.0, /*absolute=*/false);
  const auto sweep = RunDangoron(data, query, 1);
  const auto scalar = RunReference(data, query, ExactOptions());
  ExpectBitIdentical(sweep, scalar);
  // Accept-everything: each window is the full clique.
  for (int64_t k = 0; k < sweep.num_windows(); ++k) {
    EXPECT_EQ(static_cast<int64_t>(sweep.WindowEdges(k).size()),
              n * (n - 1) / 2);
  }
}

TEST(SweepKernelTest, DegenerateSeriesProduceNoSpuriousEdges) {
  const int64_t length = kBasicWindow * 16;
  TimeSeriesMatrix data = RandomWalkData(13, length, 71003);
  // Series 3: dead sensor (constant everywhere). Series 7: flatlines for a
  // stretch covering some windows but not others.
  for (int64_t t = 0; t < length; ++t) {
    data.Set(3, t, 42.0);
  }
  for (int64_t t = kBasicWindow * 4; t < kBasicWindow * 10; ++t) {
    data.Set(7, t, -1.5);
  }
  for (const bool absolute : {false, true}) {
    SCOPED_TRACE(absolute);
    const SlidingQuery query = SweepQuery(length, 0.2, absolute);
    const auto sweep = RunDangoron(data, query, 1);
    const auto scalar = RunReference(data, query, ExactOptions());
    ExpectBitIdentical(sweep, scalar);
    ExpectMatchesNaive(sweep, data, query);
    // A degenerate series correlates at exactly 0, which never clears a
    // positive threshold: series 3 must be edgeless in every window.
    for (int64_t k = 0; k < sweep.num_windows(); ++k) {
      for (const Edge& edge : sweep.WindowEdges(k)) {
        EXPECT_NE(edge.i, 3);
        EXPECT_NE(edge.j, 3);
      }
    }
  }
}

TEST(SweepKernelTest, TileRemainderPairCountsAndThreadCounts) {
  const int64_t length = kBasicWindow * 20;
  // n=48 -> 1128 pairs: two sweep tiles with a 104-pair remainder tile,
  // plus plenty of split fixed-i runs at the tile boundary.
  const TimeSeriesMatrix data = RandomWalkData(48, length, 71004);
  const SlidingQuery query = SweepQuery(length, 0.3, /*absolute=*/true);
  const auto scalar = RunReference(data, query, ExactOptions());
  for (const int32_t threads : {1, 4}) {
    SCOPED_TRACE(threads);
    const auto sweep = RunDangoron(data, query, threads);
    ExpectBitIdentical(sweep, scalar);
  }
}

// Pair-range restrictions (the sharding primitive) cut the sweep's fixed-i
// runs at arbitrary pair ids and leave runs shorter than the row prefetch
// distance; every restricted cell must still be bit-identical to the same
// cell of the unrestricted reference walk. Steps of 1, 3 and 9 basic
// windows cover bands whose slots share, straddle and skip cache lines.
TEST(SweepKernelTest, PairRangeRestrictionsAreBitIdentical) {
  for (const int64_t n : {int64_t{9}, int64_t{17}, int64_t{130}}) {
    const auto pair_id = [n](int64_t i, int64_t j) {
      return BasicWindowIndex::PairId(i, j, n);
    };
    const int64_t num_pairs = n * (n - 1) / 2;
    const std::vector<std::pair<int64_t, int64_t>> ranges = {
        {pair_id(0, 3), pair_id(2, 5)},      // mid-run to mid-run
        {pair_id(1, 4), pair_id(1, 4) + 3},  // inside one run
        {pair_id(n / 2, n / 2 + 2), pair_id(n - 3, n - 1)},
        {1, num_pairs},
    };
    for (const int64_t m : {int64_t{1}, int64_t{3}, int64_t{9}}) {
      SlidingQuery query;
      query.window = kBasicWindow * 5;
      query.step = kBasicWindow * m;
      query.start = 0;
      query.end = query.window + 19 * query.step;  // 20 windows: two bands
      query.threshold = 0.3;
      query.absolute = true;
      const TimeSeriesMatrix data =
          RandomWalkData(n, query.end, 71010 + static_cast<uint64_t>(n * m));
      const auto scalar = RunReference(data, query, ExactOptions());
      for (const auto& [pair_begin, pair_end] : ranges) {
        SCOPED_TRACE(testing::Message() << "n=" << n << " m=" << m
                                        << " pairs [" << pair_begin << ", "
                                        << pair_end << ")");
        SlidingQuery restricted = query;
        restricted.pair_begin = pair_begin;
        restricted.pair_end = pair_end;
        for (const int32_t threads : {1, 4}) {
          const auto sweep = RunDangoron(data, restricted, threads);
          ASSERT_EQ(sweep.num_windows(), scalar.num_windows());
          for (int64_t k = 0; k < scalar.num_windows(); ++k) {
            std::vector<Edge> expected;
            for (const Edge& edge : scalar.WindowEdges(k)) {
              const int64_t p = pair_id(edge.i, edge.j);
              if (p >= pair_begin && p < pair_end) {
                expected.push_back(edge);
              }
            }
            const auto got = sweep.WindowEdges(k);
            ASSERT_EQ(got.size(), expected.size()) << "window " << k;
            for (size_t e = 0; e < expected.size(); ++e) {
              EXPECT_EQ(got[e], expected[e]) << "window " << k;
            }
          }
        }
      }
    }
  }
}

TEST(SweepKernelTest, SingleSeriesDataYieldsEmptyWindows) {
  // No pairs at all: the sweep must emit every window empty rather than
  // touching the (nonexistent) pair id space.
  const int64_t length = kBasicWindow * 12;
  const TimeSeriesMatrix data = RandomWalkData(1, length, 71007);
  const SlidingQuery query = SweepQuery(length, 0.5, /*absolute=*/false);
  const auto sweep = RunDangoron(data, query, 1);
  ASSERT_EQ(sweep.num_windows(), query.NumWindows());
  for (int64_t k = 0; k < sweep.num_windows(); ++k) {
    EXPECT_TRUE(sweep.WindowEdges(k).empty());
  }
}

// Cancels the query after `cancel_after + 1` windows arrived.
class CancelAfterSink : public WindowSink {
 public:
  explicit CancelAfterSink(int64_t cancel_after)
      : cancel_after_(cancel_after) {}
  bool OnWindow(int64_t window_index, std::vector<Edge> edges) override {
    (void)edges;
    last_index_ = window_index;
    ++windows_;
    return windows_ <= cancel_after_;
  }
  void OnFinish(const Status& status) override { final_status_ = status; }

  int64_t windows() const { return windows_; }
  int64_t last_index() const { return last_index_; }
  const Status& final_status() const { return final_status_; }

 private:
  int64_t cancel_after_ = 0;
  int64_t windows_ = 0;
  int64_t last_index_ = -1;
  Status final_status_ = Status::Ok();
};

// The engine-level time-to-first-window property: in exact mode the first
// window is delivered after one *band* of the pair sweep, not after the
// whole sweep — asserted deterministically through the evaluated-cell
// counter of a query cancelled at window 0.
TEST(SweepKernelTest, ExactModeDeliversFirstWindowBeforeFullSweep) {
  const int64_t length = kBasicWindow * 80;
  const int64_t n = 12;
  const TimeSeriesMatrix data = RandomWalkData(n, length, 71006);
  const SlidingQuery query = SweepQuery(length, 0.5, /*absolute=*/false);
  const int64_t num_windows = query.NumWindows();
  ASSERT_GT(num_windows, 2 * kSweepWindowBand);

  DangoronOptions options;
  options.basic_window = kBasicWindow;
  options.enable_jumping = false;
  DangoronEngine engine(options);
  ASSERT_TRUE(engine.Prepare(data).ok());

  CancelAfterSink sink(/*cancel_after=*/0);
  EXPECT_EQ(engine.QueryToSink(query, &sink).code(), StatusCode::kCancelled);
  EXPECT_EQ(sink.windows(), 1);
  EXPECT_EQ(sink.last_index(), 0);
  EXPECT_EQ(sink.final_status().code(), StatusCode::kCancelled);
  // Exactly one band's pairs were evaluated — a small fixed fraction of
  // the full sweep, independent of how many windows the query spans.
  const int64_t pairs = n * (n - 1) / 2;
  EXPECT_EQ(engine.stats().cells_evaluated, pairs * kSweepWindowBand);
  EXPECT_LT(engine.stats().cells_evaluated, engine.stats().cells_total);
}

// ------------------------------------------------------ band streaming --

// Value bits, not just operator== (which equates -0.0 and 0.0).
void ExpectSameBits(const CorrelationMatrixSeries& got,
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

// A band-streamed query reads its slots from a ring slab the blocked
// build fills band by band; every edge must carry the exact bits of the
// same query against the resident index. The geometry makes the ring wrap
// many times (nb = 157 basic windows against rings of 32-104 slots), ends
// the data on a ragged 5-window batch, starts off the 8-window batch grid,
// and cuts pair ranges through tile pairs (N = 100 is three series tiles).
// N = 57 gives ragged rows (a 9-column last tile), and N = 9 rows no
// longer than one 8-pair vector, so sub-vector rows cross the wraps too.
TEST(SweepKernelTest, BandStreamedQueriesAreBitIdenticalToResident) {
  constexpr int64_t kStreamBasicWindow = 4;
  const int64_t nb = 157;
  for (const int64_t n : {100, 57, 9}) {
    const TimeSeriesMatrix data = RandomWalkData(
        n, kStreamBasicWindow * nb + 3, n == 100 ? 71010 : 71010 + n);
    const int64_t num_pairs = n * (n - 1) / 2;
    const std::vector<std::pair<int64_t, int64_t>> pair_ranges =
        n == 100 ? std::vector<std::pair<int64_t, int64_t>>{{0, 0},
                                                            {1000, 3333},
                                                            {4700, num_pairs}}
                 : std::vector<std::pair<int64_t, int64_t>>{
                       {0, 0},
                       {num_pairs / 3 + 1, 2 * num_pairs / 3},
                       {num_pairs / 2 + 3, num_pairs}};
    DangoronOptions options;
    options.basic_window = kStreamBasicWindow;
    options.enable_jumping = false;
    auto index = DangoronEngine::BuildIndex(data, options, nullptr);
    ASSERT_TRUE(index.ok());

    for (const int threads : {1, 4}) {
      ThreadPool pool(threads);
      ThreadPool* pool_arg = threads > 1 ? &pool : nullptr;
      for (const int64_t m : {1, 3}) {
        for (const int64_t ns : {5, 30, 45}) {
          for (const bool absolute : {false, true}) {
            SlidingQuery query;
            query.start = 11 * kStreamBasicWindow;  // neither 0 nor 8-aligned
            query.window = ns * kStreamBasicWindow;
            query.step = m * kStreamBasicWindow;
            query.end = nb * kStreamBasicWindow;  // reaches the ragged batch
            query.threshold = absolute ? 0.5 : 0.6;
            query.absolute = absolute;
            for (const auto& [pb, pe] : pair_ranges) {
              SCOPED_TRACE(testing::Message()
                           << "n=" << n << " threads=" << threads
                           << " m=" << m << " ns=" << ns
                           << " absolute=" << absolute << " pairs=[" << pb
                           << ", " << pe << ")");
              query.pair_begin = pb;
              query.pair_end = pe;
              auto resident = DangoronEngine::QueryPrepared(
                  options, *index, query, pool_arg, nullptr);
              ASSERT_TRUE(resident.ok());
              CollectingWindowSink sink;
              ASSERT_TRUE(DangoronEngine::QueryStreamedToSink(
                              options, data, query, pool_arg, nullptr, &sink)
                              .ok());
              ExpectSameBits(sink.TakeSeries(), *resident);
              if (threads == 1 && !absolute && pb == 0 && pe == 0) {
                ExpectMatchesNaive(*resident, data, query);
              }
            }
          }
        }
      }
    }
  }
}

// The serving layer feeds one stream through several forward runs of a
// query (its claimed runs, and single windows after a failed join): each
// run's edges equal the resident index's, and a run behind the ring fails
// instead of reading overwritten slots.
TEST(SweepKernelTest, OneStreamServesForwardRunsOfAQuery) {
  const int64_t n = 57;
  const int64_t nb = 120;
  const TimeSeriesMatrix data = RandomWalkData(n, kBasicWindow * nb, 71011);
  DangoronOptions options;
  options.basic_window = kBasicWindow;
  options.enable_jumping = false;
  auto index = DangoronEngine::BuildIndex(data, options, nullptr);
  ASSERT_TRUE(index.ok());

  SlidingQuery query;
  query.start = 3 * kBasicWindow;
  query.window = 9 * kBasicWindow;
  query.step = 2 * kBasicWindow;
  query.end = nb * kBasicWindow;
  query.threshold = 0.4;
  auto stream = DangoronEngine::CreateStream(data, options, query, nullptr);
  ASSERT_TRUE(stream.ok());
  EXPECT_EQ(stream->MemoryBytes(),
            DangoronEngine::EstimateStreamBytes(n, data.length(), options,
                                                query));
  EXPECT_LT(stream->Slots().ring_slots, nb);  // the ring really wraps

  // Runs [0, 5), [5, 21), window 30 alone, then the rest.
  const int64_t num_windows = query.NumWindows();
  for (const auto& [k0, k1] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 5}, {5, 21}, {30, 31}, {31, num_windows}}) {
    SCOPED_TRACE(testing::Message() << "run [" << k0 << ", " << k1 << ")");
    SlidingQuery run = query;
    run.start = query.start + k0 * query.step;
    run.end = run.start + (k1 - k0 - 1) * query.step + query.window;
    auto resident =
        DangoronEngine::QueryPrepared(options, *index, run, nullptr, nullptr);
    ASSERT_TRUE(resident.ok());
    CollectingWindowSink sink;
    ASSERT_TRUE(DangoronEngine::QueryStreamedToSink(options, &*stream, run,
                                                    nullptr, nullptr, &sink)
                    .ok());
    ExpectSameBits(sink.TakeSeries(), *resident);
  }
  CollectingWindowSink sink;
  EXPECT_EQ(DangoronEngine::QueryStreamedToSink(options, &*stream, query,
                                                nullptr, nullptr, &sink)
                .code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dangoron
