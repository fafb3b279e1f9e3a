#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "common/stopwatch.h"
#include "corr/sweep_kernel.h"
#include "engine/dangoron_engine.h"
#include "engine/factory.h"
#include "engine/naive_engine.h"
#include "serve/server.h"
#include "serve/sketch_cache.h"
#include "serve/window_result_cache.h"
#include "sketch/basic_window_index.h"
#include "stream/streaming_builder.h"
#include "ts/generators.h"
#include "wire/wire_format.h"

namespace dangoron {
namespace {

TimeSeriesMatrix SmallClimate(int64_t stations, int64_t hours, uint64_t seed) {
  ClimateSpec spec;
  spec.num_stations = stations;
  spec.num_hours = hours;
  spec.seed = seed;
  auto dataset = GenerateClimate(spec);
  CHECK(dataset.ok());
  return std::move(dataset->data);
}

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

SlidingQuery MakeQuery(int64_t start, int64_t end, int64_t window,
                       int64_t step, double threshold) {
  SlidingQuery query;
  query.start = start;
  query.end = end;
  query.window = window;
  query.step = step;
  query.threshold = threshold;
  return query;
}

// The closed-form admission estimate the server charges a prepare — the
// number the admission tests size cache budgets against (exact: the
// estimate matches the built index's MemoryBytes).
int64_t PrepareEstimate(const TimeSeriesMatrix& data, int64_t basic_window) {
  BasicWindowIndexOptions index_options;
  index_options.basic_window = basic_window;
  return BasicWindowIndex::EstimateMemoryBytes(data.num_series(),
                                               data.length(), index_options) +
         static_cast<int64_t>(data.values().size() * sizeof(double));
}

#if DANGORON_FAILPOINTS_ENABLED
constexpr bool kServeFailpointsCompiled = true;
#else
constexpr bool kServeFailpointsCompiled = false;
#endif

// A request with default ServeOptions: the server's default tier and
// admission, no deadline.
QueryRequest Request(const std::string& dataset, const SlidingQuery& query) {
  return QueryRequest{dataset, query, ServeOptions{}};
}

// The approx tier is the one that still builds and caches full sketches:
// the tests of full-sketch caching, eviction and admission run there.
QueryRequest ApproxRequest(const std::string& dataset,
                           const SlidingQuery& query) {
  QueryRequest request = Request(dataset, query);
  request.options.tier = ServeTier::kApprox;
  return request;
}

// The deterministic Eq. 2 jumping run an approx answer must equal.
CorrelationMatrixSeries JumpingTruth(const TimeSeriesMatrix& data,
                                     const SlidingQuery& query,
                                     int64_t basic_window) {
  DangoronOptions options;
  options.basic_window = basic_window;
  options.enable_jumping = true;
  DangoronEngine engine(options);
  CHECK(engine.Prepare(data).ok());
  auto result = engine.Query(query);
  CHECK(result.ok());
  return std::move(*result);
}

CorrelationMatrixSeries NaiveTruth(const TimeSeriesMatrix& data,
                                   const SlidingQuery& query) {
  NaiveEngine naive;
  CHECK(naive.Prepare(data).ok());
  auto truth = naive.Query(query);
  CHECK(truth.ok());
  return std::move(*truth);
}

// Same windows, same edges, same value bits.
void ExpectSeriesBitsEqual(const CorrelationMatrixSeries& a,
                           const CorrelationMatrixSeries& b) {
  ASSERT_EQ(a.num_windows(), b.num_windows());
  for (int64_t k = 0; k < a.num_windows(); ++k) {
    const auto edges_a = a.WindowEdges(k);
    const auto edges_b = b.WindowEdges(k);
    ASSERT_EQ(edges_a.size(), edges_b.size()) << "window " << k;
    for (size_t e = 0; e < edges_a.size(); ++e) {
      EXPECT_EQ(edges_a[e].i, edges_b[e].i) << "window " << k;
      EXPECT_EQ(edges_a[e].j, edges_b[e].j) << "window " << k;
      EXPECT_EQ(std::bit_cast<uint64_t>(edges_a[e].value),
                std::bit_cast<uint64_t>(edges_b[e].value))
          << "window " << k;
    }
  }
}

void ExpectSameSummary(const StreamingSummary& a, const StreamingSummary& b) {
  EXPECT_EQ(a.tier_used, b.tier_used);
  EXPECT_EQ(a.prepared_from_cache, b.prepared_from_cache);
  EXPECT_EQ(a.windows_from_cache, b.windows_from_cache);
  EXPECT_EQ(a.windows_computed, b.windows_computed);
  EXPECT_EQ(a.windows_joined, b.windows_joined);
  EXPECT_EQ(a.cells_jumped, b.cells_jumped);
  EXPECT_EQ(a.jumps, b.jumps);
  EXPECT_EQ(a.degraded, b.degraded);
}

// Answers `requests` in order twice — collected through Query on one
// server, drained from SubmitStreaming on an identically configured twin —
// and requires the two surfaces to agree on every status, window bit and
// summary counter. The twins see the same request sequence, so their caches
// evolve identically.
void ExpectCollectedEqualsStreamed(const DangoronServerOptions& options,
                                   const TimeSeriesMatrix& data,
                                   const std::vector<QueryRequest>& requests) {
  DangoronServer collecting(options);
  DangoronServer streaming(options);
  ASSERT_TRUE(collecting.AddDataset("d", data).ok());
  ASSERT_TRUE(streaming.AddDataset("d", data).ok());
  for (size_t r = 0; r < requests.size(); ++r) {
    SCOPED_TRACE(r);
    const QueryRequest& request = requests[r];
    auto collected = collecting.Query(request);
    auto stream = streaming.SubmitStreaming(request);
    CorrelationMatrixSeries drained(request.query, data.num_series());
    int64_t next_index = 0;
    while (auto window = stream->Next()) {
      ASSERT_EQ(window->window_index, next_index++);
      *drained.MutableWindow(window->window_index) = *window->edges;
    }
    ASSERT_EQ(collected.status().code(), stream->status().code())
        << collected.status().ToString() << " vs "
        << stream->status().ToString();
    ASSERT_TRUE(collected.ok()) << collected.status().ToString();
    EXPECT_EQ(next_index, request.query.NumWindows());
    ExpectSeriesBitsEqual(collected->series, drained);
    ExpectSameSummary(*collected, stream->summary());
  }
}

// ------------------------------------------------------------- LRU caches --

TEST(LruCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  WindowResultCache cache(300);
  auto edges = std::make_shared<std::vector<Edge>>();
  const auto key = [](int64_t start_bw) {
    return WindowKey::Make(1, 24, 4, start_bw, 0.8, false);
  };
  cache.Put(key(0), edges, 100);
  cache.Put(key(1), edges, 100);
  cache.Put(key(2), edges, 100);
  EXPECT_NE(cache.Get(key(0)), nullptr);  // bump 0: LRU order is now 1, 2, 0
  cache.Put(key(3), edges, 100);          // evicts 1
  EXPECT_EQ(cache.Get(key(1)), nullptr);
  EXPECT_NE(cache.Get(key(2)), nullptr);
  EXPECT_NE(cache.Get(key(0)), nullptr);
  EXPECT_NE(cache.Get(key(3)), nullptr);

  const LruCacheStats stats = cache.stats();
  EXPECT_EQ(stats.entries, 3);
  EXPECT_EQ(stats.bytes, 300);
  EXPECT_EQ(stats.evictions, 1);
}

TEST(LruCacheTest, OversizedEntryIsRejectedWithoutFlushingWarmEntries) {
  WindowResultCache cache(50);
  auto edges = std::make_shared<std::vector<Edge>>(
      std::vector<Edge>{Edge{0, 1, 0.9}});
  const WindowKey warm = WindowKey::Make(1, 24, 4, 7, 0.8, false);
  cache.Put(warm, edges, 40);
  cache.Put(WindowKey::Make(1, 24, 4, 0, 0.8, false), edges, 1000);
  EXPECT_EQ(cache.Get(WindowKey::Make(1, 24, 4, 0, 0.8, false)), nullptr);
  // The oversized newcomer must not have evicted the fitting entry.
  EXPECT_NE(cache.Get(warm), nullptr);
  EXPECT_EQ(cache.stats().entries, 1);
  // The caller's reference is unaffected by the rejection.
  EXPECT_EQ(edges->size(), 1u);
}

TEST(LruCacheTest, RefreshingAKeyUpdatesBytes) {
  WindowResultCache cache(1000);
  auto edges = std::make_shared<std::vector<Edge>>();
  const WindowKey key = WindowKey::Make(1, 24, 4, 0, 0.8, false);
  cache.Put(key, edges, 100);
  cache.Put(key, edges, 250);
  EXPECT_EQ(cache.stats().bytes, 250);
  EXPECT_EQ(cache.stats().entries, 1);
}

// ------------------------------------------------------- basic serving ----

TEST(DangoronServerTest, MatchesNaiveEngine) {
  const int64_t b = 8;
  TimeSeriesMatrix data = SmallClimate(6, b * 40, 4001);
  const TimeSeriesMatrix copy = data;
  const SlidingQuery query = MakeQuery(0, b * 40, b * 6, b * 2, 0.7);
  const CorrelationMatrixSeries truth = NaiveTruth(data, query);

  DangoronServerOptions options;
  options.num_threads = 4;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("climate", std::move(data)).ok());

  auto result = server.Query(Request("climate", query));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSeriesEqual(truth, result->series, 1e-8);
  EXPECT_FALSE(result->prepared_from_cache);
  EXPECT_EQ(result->windows_computed, query.NumWindows());
  EXPECT_EQ(result->windows_from_cache, 0);

  // Identical repeat: full cache hit, nothing recomputed.
  auto repeat = server.Query(Request("climate", query));
  ASSERT_TRUE(repeat.ok());
  ExpectSeriesEqual(truth, repeat->series, 1e-8);
  EXPECT_TRUE(repeat->prepared_from_cache);
  EXPECT_EQ(repeat->windows_from_cache, query.NumWindows());
  EXPECT_EQ(repeat->windows_computed, 0);

  // One pipeline: Query collects exactly what a drained SubmitStreaming
  // delivers — exact cold and cached, an off-grid family threshold filtered
  // from cached windows, a fresh family, approx, and pair-range slices of
  // both tiers.
  SlidingQuery off_grid = query;
  off_grid.threshold = 0.73;  // family 0.70: served from cache, filtered
  SlidingQuery fresh_family = query;
  fresh_family.threshold = 0.52;
  SlidingQuery slice = query;
  slice.pair_begin = 3;
  slice.pair_end = 11;
  ExpectCollectedEqualsStreamed(
      options, copy,
      {Request("d", query), Request("d", query), Request("d", off_grid),
       Request("d", fresh_family), ApproxRequest("d", query),
       Request("d", slice), ApproxRequest("d", slice)});
}

TEST(DangoronServerTest, OverlappingQueryReusesWindows) {
  const int64_t b = 8;
  TimeSeriesMatrix data = SmallClimate(5, b * 40, 4002);
  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  const TimeSeriesMatrix copy = data;
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  // Windows at starts 0, 2b, 4b, ..., 18b.
  const SlidingQuery first = MakeQuery(0, b * 24, b * 4, b * 2, 0.6);
  ASSERT_TRUE(server.Query(Request("d", first)).ok());

  // Shifted range, same geometry: starts 10b .. 30b — the six windows at
  // 10b, 12b, ..., 20b are already cached from the first query.
  const SlidingQuery second = MakeQuery(b * 10, b * 34, b * 4, b * 2, 0.6);
  auto result = server.Query(Request("d", second));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->windows_from_cache, 6);
  EXPECT_EQ(result->windows_computed, second.NumWindows() - 6);
  ExpectSeriesEqual(NaiveTruth(copy, second), result->series, 1e-8);
}

TEST(DangoronServerTest, ValidatesQueriesAndDatasetNames) {
  const int64_t b = 8;
  DangoronServerOptions options;
  options.basic_window = b;
  options.num_threads = 1;
  DangoronServer server(options);
  ASSERT_TRUE(
      server.AddDataset("d", SmallClimate(4, b * 20, 4003)).ok());

  EXPECT_EQ(server.Query(Request("nope", MakeQuery(0, b * 20, b * 4, b, 0.5)))
                .status()
                .code(),
            StatusCode::kNotFound);
  // Unaligned window.
  EXPECT_EQ(server.Query(Request("d", MakeQuery(0, b * 20, b * 4 + 1, b, 0.5)))
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // Range beyond the data.
  EXPECT_FALSE(
      server.Query(Request("d", MakeQuery(0, b * 21, b * 4, b, 0.5))).ok());
  EXPECT_FALSE(server.AddDataset("", SmallClimate(4, b * 20, 1)).ok());
}

TEST(DangoronServerTest, IdenticalDataSharesOnePrepareAcrossNames) {
  const int64_t b = 8;
  TimeSeriesMatrix data = SmallClimate(5, b * 30, 4004);
  const TimeSeriesMatrix copy = data;
  DangoronServerOptions options;
  options.basic_window = b;
  options.num_threads = 1;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("a", std::move(data)).ok());
  ASSERT_TRUE(server.AddDataset("b", copy).ok());

  const SlidingQuery query = MakeQuery(0, b * 30, b * 5, b, 0.7);
  ASSERT_TRUE(server.Query(Request("a", query)).ok());
  auto via_b = server.Query(Request("b", query));
  ASSERT_TRUE(via_b.ok());
  // Same content fingerprint: the sketch (and the windows) are shared.
  EXPECT_TRUE(via_b->prepared_from_cache);
  EXPECT_EQ(via_b->windows_from_cache, query.NumWindows());
  EXPECT_EQ(server.stats().prepares_built, 1);
}

// The exact tier never builds or caches a full sketch: a rotation of six
// datasets through a sketch cache that holds one full sketch pays one band
// stream per request, leaves the sketch cache empty, and recycles only
// ring slabs — no full-size pair block ever reaches the recycler.
TEST(DangoronServerTest, ExactRotationBandStreamsWithoutCachingSketches) {
  const int64_t b = 8;
  const int64_t length = b * 200;
  const int64_t stations = 12;
  constexpr int kDatasets = 6;
  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  options.result_cache_bytes = 1;  // every request computes its windows
  options.sketch_cache_bytes =
      PrepareEstimate(SmallClimate(stations, length, 4100), b) * 3 / 2;
  DangoronServer server(options);
  std::vector<TimeSeriesMatrix> copies;
  for (int d = 0; d < kDatasets; ++d) {
    copies.push_back(SmallClimate(stations, length, 4100 + d));
    ASSERT_TRUE(server.AddDataset("d" + std::to_string(d), copies.back()).ok());
  }
  TrimSketchRecycler();

  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.7);
  int64_t requests = 0;
  for (int round = 0; round < 2; ++round) {
    for (int d = 0; d < kDatasets; ++d) {
      auto result = server.Query(Request("d" + std::to_string(d), query));
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_FALSE(result->prepared_from_cache);
      EXPECT_EQ(result->windows_computed, query.NumWindows());
      ExpectSeriesEqual(NaiveTruth(copies[static_cast<size_t>(d)], query),
                        result->series, 1e-8);
      ++requests;
    }
  }
  const DangoronServerStats stats = server.stats();
  EXPECT_EQ(stats.prepares_built, requests);
  EXPECT_EQ(stats.sketch_cache.insertions, 0);
  EXPECT_EQ(stats.sketch_cache.entries, 0);
  const int64_t num_pairs = stations * (stations - 1) / 2;
  const int64_t full_block_bytes =
      num_pairs * FullPairRowStride(length / b) *
      static_cast<int64_t>(sizeof(double));
  EXPECT_GT(SketchRecyclerRetainedBytes(), 0);
  EXPECT_LT(SketchRecyclerRetainedBytes(), full_block_bytes);
}

// A fully result-cached exact query opens no source at all: no build, no
// sketch-cache probe, and it reports prepared_from_cache.
TEST(DangoronServerTest, FullyCachedExactQueryBuildsNothing) {
  const int64_t b = 8;
  DangoronServerOptions options;
  options.num_threads = 1;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", SmallClimate(5, b * 30, 4101)).ok());
  const SlidingQuery query = MakeQuery(0, b * 30, b * 5, b, 0.7);
  auto first = server.Query(Request("d", query));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->prepared_from_cache);
  EXPECT_EQ(server.stats().prepares_built, 1);

  auto repeat = server.Query(Request("d", query));
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->prepared_from_cache);
  EXPECT_EQ(repeat->windows_computed, 0);
  const DangoronServerStats stats = server.stats();
  EXPECT_EQ(stats.prepares_built, 1);
  EXPECT_EQ(stats.prepares_shared, 0);
  EXPECT_EQ(stats.sketch_cache.hits + stats.sketch_cache.misses, 1);
}

// ------------------------------------------------- concurrency stress -----

// N concurrent submissions, identical and overlapping, against a small
// thread pool: every result must equal the serial NaiveEngine run, and the
// total evaluation work must not exceed the distinct-window universe
// (deduplication across cache hits and in-flight joins).
TEST(DangoronServerStressTest, ConcurrentOverlappingSubmitsMatchNaive) {
  const int64_t b = 8;
  const int64_t length = b * 48;
  TimeSeriesMatrix data = SmallClimate(6, length, 4005);
  const TimeSeriesMatrix copy = data;

  DangoronServerOptions options;
  options.num_threads = 4;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  // 12 queries: 4 identical, plus shifted/overlapping ranges and one
  // distinct threshold (its windows must not mix with the others').
  std::vector<SlidingQuery> queries;
  for (int i = 0; i < 4; ++i) {
    queries.push_back(MakeQuery(0, length, b * 6, b * 2, 0.6));
  }
  for (int i = 0; i < 4; ++i) {
    queries.push_back(
        MakeQuery(b * 2 * i, length - b * 2 * i, b * 6, b * 2, 0.6));
  }
  for (int i = 0; i < 3; ++i) {
    queries.push_back(MakeQuery(b * 4 * i, length, b * 6, b * 2, 0.6));
  }
  queries.push_back(MakeQuery(0, length, b * 6, b * 2, 0.85));

  std::vector<std::future<Result<ServeResult>>> pending;
  pending.reserve(queries.size());
  for (const SlidingQuery& query : queries) {
    pending.push_back(server.Submit(Request("d", query)));
  }
  int64_t building_queries = 0;
  for (size_t q = 0; q < queries.size(); ++q) {
    auto result = pending[q].get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ExpectSeriesEqual(NaiveTruth(copy, queries[q]), result->series, 1e-8);
    // Computing a window takes a build; a query may also build and then
    // find its windows claimed by a concurrent query (it opens its source
    // before claiming, since admission may park).
    if (result->windows_computed > 0) {
      EXPECT_FALSE(result->prepared_from_cache);
    }
    building_queries += result->prepared_from_cache ? 0 : 1;
  }

  // All 0.6-threshold queries share one window universe: starts 0..42b
  // step 2b => 22 distinct windows; the 0.85 query adds its own 22.
  const DangoronServerStats stats = server.stats();
  EXPECT_EQ(stats.queries, static_cast<int64_t>(queries.size()));
  EXPECT_EQ(stats.windows_computed, 44);
  // Exact queries share windows, not builds: each query that computes a
  // window band-streams its own prefixes, and none caches a full sketch.
  EXPECT_EQ(stats.prepares_built, building_queries);
  EXPECT_GE(building_queries, 1);
  EXPECT_EQ(stats.sketch_cache.insertions, 0);
}

// Tiny byte budgets: every sketch and window is evicted almost immediately,
// so queries keep rebuilding — results must stay correct (in-flight queries
// hold shared_ptr references; eviction can never corrupt them), and the
// evicted sketch storage must land in the recycler. Approx queries build
// the full sketches the cache evicts; exact queries band-stream next to
// them.
TEST(DangoronServerStressTest, TinyCacheBudgetsNeverCorruptResults) {
  const int64_t b = 8;
  const int64_t length = b * 32;
  TimeSeriesMatrix data_a = SmallClimate(5, length, 4006);
  TimeSeriesMatrix data_b = SmallClimate(5, length, 4007);
  const TimeSeriesMatrix copy_a = data_a;
  const TimeSeriesMatrix copy_b = data_b;

  DangoronServerOptions options;
  options.num_threads = 3;
  options.basic_window = b;
  options.sketch_cache_bytes = 1;  // nothing survives
  options.result_cache_bytes = 1;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("a", std::move(data_a)).ok());
  ASSERT_TRUE(server.AddDataset("b", std::move(data_b)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 5, b * 3, 0.6);
  const CorrelationMatrixSeries truth_a = NaiveTruth(copy_a, query);
  const CorrelationMatrixSeries truth_b = NaiveTruth(copy_b, query);
  const CorrelationMatrixSeries jumped_a = JumpingTruth(copy_a, query, b);
  const CorrelationMatrixSeries jumped_b = JumpingTruth(copy_b, query, b);

  for (int round = 0; round < 3; ++round) {
    std::vector<std::future<Result<ServeResult>>> pending;
    for (int i = 0; i < 3; ++i) {
      pending.push_back(server.Submit(Request("a", query)));
      pending.push_back(server.Submit(Request("b", query)));
      pending.push_back(server.Submit(ApproxRequest("a", query)));
      pending.push_back(server.Submit(ApproxRequest("b", query)));
    }
    for (size_t q = 0; q < pending.size(); ++q) {
      auto result = pending[q].get();
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      const bool is_a = q % 2 == 0;
      if (q % 4 < 2) {
        ExpectSeriesEqual(is_a ? truth_a : truth_b, result->series, 1e-8);
      } else {
        ExpectSeriesEqual(is_a ? jumped_a : jumped_b, result->series, 0.0);
      }
    }
  }
  const DangoronServerStats stats = server.stats();
  EXPECT_GT(stats.sketch_cache.evictions, 0);
  EXPECT_GT(stats.result_cache.evictions, 0);
  // Evicted sketches retire their storage through the recycler.
  EXPECT_GT(SketchRecyclerRetainedBytes(), 0);
}

// Destroying the server with submissions still queued/running must drain
// them (no Schedule-after-shutdown abort from inner ParallelFor helpers)
// and leave every future resolvable.
TEST(DangoronServerStressTest, DestructionDrainsInFlightQueries) {
  const int64_t b = 8;
  const int64_t length = b * 40;
  TimeSeriesMatrix data = SmallClimate(6, length, 4010);
  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.6);

  std::vector<std::future<Result<ServeResult>>> pending;
  {
    DangoronServerOptions options;
    options.num_threads = 4;
    options.basic_window = b;
    DangoronServer server(options);
    ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());
    for (int i = 0; i < 8; ++i) {
      pending.push_back(server.Submit(Request("d", query)));
    }
    // Server destructs here, before any future was waited on.
  }
  for (auto& future : pending) {
    auto result = future.get();
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->series.num_windows(), query.NumWindows());
  }
}

// -------------------------------------------------- streaming integration --

TEST(DangoronServerTest, StreamPublishedWindowsServeHistoricalQueries) {
  const int64_t b = 8;
  const int64_t length = b * 30;
  TimeSeriesMatrix data = SmallClimate(5, length, 4008);
  const TimeSeriesMatrix copy = data;

  DangoronServerOptions options;
  options.basic_window = b;
  options.num_threads = 1;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("live", std::move(data)).ok());
  auto fingerprint = server.DatasetFingerprint("live");
  ASSERT_TRUE(fingerprint.ok());

  StreamingOptions stream_options;
  stream_options.basic_window = b;
  stream_options.window = b * 5;
  stream_options.step = b * 2;
  stream_options.threshold = 0.6;
  auto builder = StreamingNetworkBuilder::Create(5, stream_options);
  ASSERT_TRUE(builder.ok());
  builder->PublishTo(server.mutable_result_cache(), *fingerprint);
  ASSERT_TRUE(builder->AppendColumns(copy, 0, length).ok());

  // The live stream populated every window the historical query needs.
  const SlidingQuery query = MakeQuery(0, length, b * 5, b * 2, 0.6);
  auto result = server.Query(Request("live", query));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->windows_from_cache, query.NumWindows());
  EXPECT_EQ(result->windows_computed, 0);
  ExpectSeriesEqual(NaiveTruth(copy, query), result->series, 1e-8);
}

// ------------------------------------------------- streaming submissions --

// Windows arrive in ascending order, exactly once each, and the delivered
// edge sets equal the serial NaiveEngine truth; a repeat stream is pure
// cache and a family-shifted threshold reuses the same cached windows
// through delivery-time filtering.
TEST(StreamingSubmitTest, DeliversWindowsInOrderMatchingNaive) {
  const int64_t b = 8;
  const int64_t length = b * 44;
  TimeSeriesMatrix data = SmallClimate(6, length, 5001);
  const TimeSeriesMatrix copy = data;

  DangoronServerOptions options;
  options.num_threads = 3;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.6);
  const CorrelationMatrixSeries truth = NaiveTruth(copy, query);

  QueryRequest stream_request = Request("d", query);
  stream_request.options.queue_capacity = 3;
  stream_request.options.max_batch_windows = 4;
  auto stream = server.SubmitStreaming(stream_request);
  int64_t expected_index = 0;
  while (auto window = stream->Next()) {
    ASSERT_EQ(window->window_index, expected_index);
    const auto expected = truth.WindowEdges(window->window_index);
    ASSERT_EQ(window->edges->size(), expected.size())
        << "window " << window->window_index;
    for (size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ((*window->edges)[e].i, expected[e].i);
      EXPECT_EQ((*window->edges)[e].j, expected[e].j);
      EXPECT_NEAR((*window->edges)[e].value, expected[e].value, 1e-8);
    }
    ++expected_index;
  }
  ASSERT_TRUE(stream->status().ok()) << stream->status().ToString();
  EXPECT_EQ(expected_index, query.NumWindows());
  EXPECT_EQ(stream->summary().windows_computed, query.NumWindows());

  // Identical repeat: every window from cache, no evaluation.
  auto repeat = server.SubmitStreaming(stream_request);
  int64_t repeated = 0;
  while (auto window = repeat->Next()) {
    ++repeated;
  }
  ASSERT_TRUE(repeat->status().ok());
  EXPECT_EQ(repeated, query.NumWindows());
  EXPECT_EQ(repeat->summary().windows_from_cache, query.NumWindows());
  EXPECT_EQ(repeat->summary().windows_computed, 0);

  // Family threshold: 0.63 snaps to the 0.6 family — same cached windows,
  // filtered up to 0.63 at the delivery edge.
  QueryRequest swept = stream_request;
  swept.query.threshold = 0.63;
  const CorrelationMatrixSeries swept_truth = NaiveTruth(copy, swept.query);
  auto family = server.SubmitStreaming(swept);
  int64_t k = 0;
  while (auto window = family->Next()) {
    const auto expected = swept_truth.WindowEdges(k);
    ASSERT_EQ(window->edges->size(), expected.size()) << "window " << k;
    for (size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ((*window->edges)[e].i, expected[e].i);
      EXPECT_EQ((*window->edges)[e].j, expected[e].j);
      EXPECT_NEAR((*window->edges)[e].value, expected[e].value, 1e-8);
    }
    ++k;
  }
  ASSERT_TRUE(family->status().ok());
  EXPECT_EQ(family->summary().windows_from_cache, query.NumWindows());
  EXPECT_EQ(family->summary().windows_computed, 0);
}

// Mid-stream cancellation: queued slots are released (the blocked producer
// wakes and acknowledges), the windows evaluated before the cancel stay in
// the result cache, and a follow-up identical query reuses that prefix.
TEST(StreamingSubmitTest, CancellationLeavesReusableCachedPrefix) {
  const int64_t b = 8;
  const int64_t length = b * 44;  // 20 windows
  TimeSeriesMatrix data = SmallClimate(6, length, 5002);
  const TimeSeriesMatrix copy = data;

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.6);
  const int64_t num_windows = query.NumWindows();
  ASSERT_GE(num_windows, 12);

  QueryRequest stream_request = Request("d", query);
  // Tight: the producer blocks early.
  stream_request.options.queue_capacity = 1;
  stream_request.options.max_batch_windows = 1;
  auto stream = server.SubmitStreaming(stream_request);
  for (int consumed = 0; consumed < 2; ++consumed) {
    auto window = stream->Next();
    ASSERT_TRUE(window.has_value());
    EXPECT_EQ(window->window_index, consumed);
  }
  stream->Cancel();
  // Draining after Cancel joins the producer: nullopt only after its Finish.
  while (stream->Next().has_value()) {
  }
  EXPECT_EQ(stream->status().code(), StatusCode::kCancelled);
  const int64_t computed_before_cancel = stream->summary().windows_computed;
  EXPECT_GE(computed_before_cancel, 2);
  EXPECT_LT(computed_before_cancel, num_windows);

  // The follow-up identical query starts from the cancelled stream's cached
  // prefix — dedup pays off even though the stream never completed.
  auto result = server.Query(Request("d", query));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSeriesEqual(NaiveTruth(copy, query), result->series, 1e-8);
  EXPECT_EQ(result->windows_from_cache, computed_before_cancel);
  EXPECT_EQ(result->windows_computed, num_windows - computed_before_cancel);
}

// Backpressure: a deliberately slow consumer on a tiny queue must never
// deadlock the stream's producer, nor a concurrent collected query that
// joins the stream's claimed windows.
TEST(StreamingSubmitTest, SlowConsumerBackpressureNeverDeadlocks) {
  const int64_t b = 8;
  const int64_t length = b * 36;
  TimeSeriesMatrix data = SmallClimate(5, length, 5003);
  const TimeSeriesMatrix copy = data;

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 5, b * 2, 0.6);
  QueryRequest stream_request = Request("d", query);
  stream_request.options.queue_capacity = 1;
  stream_request.options.max_batch_windows = 1;
  auto stream = server.SubmitStreaming(stream_request);

  // A concurrent identical collected query joins the stream's in-flight
  // claims; its completion depends on this consumer draining — which it
  // does, slowly.
  auto concurrent = server.Submit(Request("d", query));

  int64_t delivered = 0;
  while (auto window = stream->Next()) {
    ++delivered;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(stream->status().ok()) << stream->status().ToString();
  EXPECT_EQ(delivered, query.NumWindows());

  auto joined = concurrent.get();
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ExpectSeriesEqual(NaiveTruth(copy, query), joined->series, 1e-8);
}

// The claim protocol must never make a collected query's future depend
// on a stream consumer's progress: claims are taken per evaluation batch,
// so a single thread may submit a stream, then block on a collected
// result for the same windows *before* draining the stream. With upfront
// whole-plan claiming this deadlocks permanently — and with producers as
// pool tasks, a 1-thread pool (the hardest case, used here) would wedge
// even without claims, the blocked producer pinning the only worker.
TEST(StreamingSubmitTest, MaterializedJoinBeforeDrainingStreamDoesNotDeadlock) {
  const int64_t b = 8;
  const int64_t length = b * 40;
  TimeSeriesMatrix data = SmallClimate(5, length, 5007);
  const TimeSeriesMatrix copy = data;

  DangoronServerOptions options;
  options.num_threads = 1;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 5, b * 2, 0.6);
  QueryRequest stream_request = Request("d", query);
  // The producer blocks almost at once.
  stream_request.options.queue_capacity = 1;
  stream_request.options.max_batch_windows = 1;
  auto stream = server.SubmitStreaming(stream_request);

  // Block on the collected result first — the stream is NOT drained yet.
  auto collected = server.Query(Request("d", query));
  ASSERT_TRUE(collected.ok()) << collected.status().ToString();
  ExpectSeriesEqual(NaiveTruth(copy, query), collected->series, 1e-8);

  // Now drain the stream; it completes normally.
  int64_t delivered = 0;
  while (auto window = stream->Next()) {
    ++delivered;
  }
  ASSERT_TRUE(stream->status().ok()) << stream->status().ToString();
  EXPECT_EQ(delivered, query.NumWindows());
}

// Each live stream owns a producer thread, so the count is admission-capped.
TEST(StreamingSubmitTest, ConcurrentStreamCapRefusesTerminally) {
  const int64_t b = 8;
  const int64_t length = b * 40;
  TimeSeriesMatrix data = SmallClimate(5, length, 5008);

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  options.max_concurrent_streams = 1;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 5, b, 0.6);
  QueryRequest stream_request = Request("d", query);
  // The first stream stays live, undrained.
  stream_request.options.queue_capacity = 1;
  auto first = server.SubmitStreaming(stream_request);
  auto refused = server.SubmitStreaming(stream_request);
  EXPECT_FALSE(refused->Next().has_value());
  EXPECT_EQ(refused->status().code(), StatusCode::kResourceExhausted);

  // Finishing the first stream frees the slot.
  first->Cancel();
  while (first->Next().has_value()) {
  }
  auto admitted = server.SubmitStreaming(stream_request);
  int64_t delivered = 0;
  while (admitted->Next().has_value()) {
    ++delivered;
  }
  EXPECT_TRUE(admitted->status().ok()) << admitted->status().ToString();
  EXPECT_EQ(delivered, query.NumWindows());
}

TEST(StreamingSubmitTest, UnknownDatasetFailsTerminally) {
  DangoronServerOptions options;
  options.basic_window = 8;
  options.num_threads = 1;
  DangoronServer server(options);
  auto stream =
      server.SubmitStreaming(Request("nope", MakeQuery(0, 80, 40, 8, 0.5)));
  EXPECT_FALSE(stream->Next().has_value());
  EXPECT_EQ(stream->status().code(), StatusCode::kNotFound);
}

// Destroying the server with an unconsumed stream must cancel it rather
// than wait forever on a consumer that never drains.
TEST(StreamingSubmitTest, ServerDestructionCancelsUnconsumedStreams) {
  const int64_t b = 8;
  const int64_t length = b * 40;
  TimeSeriesMatrix data = SmallClimate(5, length, 5004);
  const SlidingQuery query = MakeQuery(0, length, b * 5, b, 0.6);

  std::unique_ptr<WindowStream> stream;
  {
    DangoronServerOptions options;
    options.num_threads = 2;
    options.basic_window = b;
    DangoronServer server(options);
    ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());
    QueryRequest stream_request = Request("d", query);
    stream_request.options.queue_capacity = 1;
    stream = server.SubmitStreaming(stream_request);
    // Destructs here with the queue full and nobody consuming.
  }
  while (stream->Next().has_value()) {
  }
  EXPECT_EQ(stream->status().code(), StatusCode::kCancelled);
}

// ------------------------------------------------------ admission policy --

TEST(DangoronServerTest, AdmissionPolicyRefusesOversizedPrepares) {
  const int64_t b = 8;
  TimeSeriesMatrix data = SmallClimate(6, b * 32, 5005);

  DangoronServerOptions options;
  options.num_threads = 1;
  options.basic_window = b;
  options.sketch_cache_bytes = 1024;  // no index of this shape can fit
  options.refuse_oversized_prepares = true;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  const SlidingQuery query = MakeQuery(0, b * 32, b * 5, b * 2, 0.6);
  auto result = server.Query(Request("d", query));
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  const DangoronServerStats stats = server.stats();
  EXPECT_EQ(stats.prepares_refused, 1);
  EXPECT_EQ(stats.prepares_built, 0);

  // Streaming submissions hit the same gate, surfaced terminally.
  auto stream = server.SubmitStreaming(Request("d", query));
  EXPECT_FALSE(stream->Next().has_value());
  EXPECT_EQ(stream->status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.stats().prepares_refused, 2);
}

// ------------------------------------------------ threshold-family cache --

// A window evaluated at the canonical family threshold answers every query
// threshold above it: sweep clients share one cached window universe and
// every result still matches the exact naive run at its own threshold.
TEST(DangoronServerTest, ThresholdFamilyMultipliesCacheHits) {
  const int64_t b = 8;
  const int64_t length = b * 36;
  TimeSeriesMatrix data = SmallClimate(6, length, 5006);
  const TimeSeriesMatrix copy = data;

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  // 0.62 and 0.64 share family 0.60; 0.68 lives in family 0.65.
  EXPECT_EQ(server.CanonicalThreshold(0.62, false),
            server.CanonicalThreshold(0.64, false));
  EXPECT_NE(server.CanonicalThreshold(0.62, false),
            server.CanonicalThreshold(0.68, false));

  SlidingQuery query = MakeQuery(0, length, b * 5, b * 2, 0.62);
  auto first = server.Query(Request("d", query));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->windows_computed, query.NumWindows());
  ExpectSeriesEqual(NaiveTruth(copy, query), first->series, 1e-8);

  query.threshold = 0.64;
  auto swept = server.Query(Request("d", query));
  ASSERT_TRUE(swept.ok());
  EXPECT_EQ(swept->windows_from_cache, query.NumWindows());
  EXPECT_EQ(swept->windows_computed, 0);
  ExpectSeriesEqual(NaiveTruth(copy, query), swept->series, 1e-8);

  query.threshold = 0.68;  // different family: evaluated afresh
  auto other_family = server.Query(Request("d", query));
  ASSERT_TRUE(other_family.ok());
  EXPECT_EQ(other_family->windows_computed, query.NumWindows());
  ExpectSeriesEqual(NaiveTruth(copy, query), other_family->series, 1e-8);

  // Grid thresholds snap to themselves bit-exactly, so the stream-publish
  // interop of StreamPublishedWindowsServeHistoricalQueries keeps working.
  EXPECT_EQ(server.CanonicalThreshold(0.6, false), 0.6);
  EXPECT_EQ(server.CanonicalThreshold(0.85, false), 0.85);

  // Below the bottom grid step the snap would land on the accept-everything
  // threshold (full cliques per cached window); those fall back to exact
  // keys instead.
  EXPECT_EQ(server.CanonicalThreshold(0.04, true), 0.04);
  EXPECT_EQ(server.CanonicalThreshold(0.04, false), 0.04);  // c >= 0 cliff
  EXPECT_EQ(server.CanonicalThreshold(-0.98, false), -0.98);
  EXPECT_EQ(server.CanonicalThreshold(0.0, true), 0.0);
  EXPECT_EQ(server.CanonicalThreshold(0.0, false), 0.0);
  EXPECT_EQ(server.CanonicalThreshold(-1.0, false), -1.0);

  // Disabling families restores exact-match keys.
  DangoronServerOptions exact_options = options;
  exact_options.threshold_family_steps = 0;
  DangoronServer exact_server(exact_options);
  EXPECT_EQ(exact_server.CanonicalThreshold(0.62, false), 0.62);
}

// --------------------------------------------------------------- factory --

TEST(CreateServerTest, ParsesOptionsAndRejectsUnknownKeys) {
  auto server = CreateServer(
      "threads=2,basic_window=8,sketch_cache_mb=16,result_cache_mb=4,"
      "refuse_oversized=on,threshold_steps=10");
  ASSERT_TRUE(server.ok());
  EXPECT_EQ((*server)->options().basic_window, 8);
  EXPECT_EQ((*server)->options().num_threads, 2);
  EXPECT_EQ((*server)->options().sketch_cache_bytes, int64_t{16} << 20);
  EXPECT_EQ((*server)->options().result_cache_bytes, int64_t{4} << 20);
  EXPECT_TRUE((*server)->options().refuse_oversized_prepares);
  EXPECT_EQ((*server)->options().threshold_family_steps, 10);

  // The request-surface keys: admission policy, queue bound, default tier.
  auto queued = CreateServer(
      "basic_window=8,admission=queue,admission_queue=4,default_tier=auto");
  ASSERT_TRUE(queued.ok());
  EXPECT_EQ((*queued)->options().admission, AdmissionPolicy::kQueue);
  EXPECT_EQ((*queued)->options().admission_queue_limit, 4);
  EXPECT_EQ((*queued)->options().default_tier, ServeTier::kAuto);

  EXPECT_FALSE(CreateServer("bogus=1").ok());
  EXPECT_FALSE(CreateServer("basic_window=0").ok());
  EXPECT_FALSE(CreateServer("threads=-1").ok());
  EXPECT_FALSE(CreateServer("threshold_steps=-5").ok());
  EXPECT_FALSE(CreateServer("max_streams=0").ok());
  EXPECT_FALSE(CreateServer("admission=sometimes").ok());
  EXPECT_FALSE(CreateServer("admission_queue=0").ok());
  EXPECT_FALSE(CreateServer("default_tier=fast").ok());

  // An end-to-end query through the factory-built server.
  TimeSeriesMatrix data = SmallClimate(4, 8 * 20, 4009);
  const TimeSeriesMatrix copy = data;
  ASSERT_TRUE((*server)->AddDataset("d", std::move(data)).ok());
  const SlidingQuery query = MakeQuery(0, 8 * 20, 8 * 4, 8, 0.7);
  auto result = (*server)->Query(Request("d", query));
  ASSERT_TRUE(result.ok());
  ExpectSeriesEqual(NaiveTruth(copy, query), result->series, 1e-8);
}

// ------------------------------------------------- cancellable join waits --

TEST(WindowClaimTest, FulfilledClaimWakesJoiner) {
  auto claim = std::make_shared<WindowClaim>();
  WindowStreamState stream(/*queue_capacity=*/1);

  std::thread joiner([&] {
    bool cancelled = true;
    WindowEdges edges = WaitForWindowClaim(claim, &stream, &cancelled);
    EXPECT_FALSE(cancelled);
    ASSERT_NE(edges, nullptr);
    EXPECT_EQ(edges->size(), 1u);
  });
  auto edges = std::make_shared<std::vector<Edge>>();
  edges->push_back(Edge{0, 1, 0.9});
  FulfillWindowClaim(claim, edges);
  joiner.join();

  // A joiner arriving after fulfillment returns immediately.
  bool cancelled = true;
  WindowEdges late = WaitForWindowClaim(claim, &stream, &cancelled);
  EXPECT_FALSE(cancelled);
  ASSERT_NE(late, nullptr);
}

// The satellite property: a streaming query blocked on another query's
// claimed window aborts on its own stream's Cancel instead of waiting for
// the foreign evaluation to resolve the claim.
TEST(WindowClaimTest, StreamCancelAbortsJoinWaitWithoutFulfillment) {
  auto claim = std::make_shared<WindowClaim>();
  auto stream = std::make_shared<WindowStreamState>(/*queue_capacity=*/1);

  bool cancelled = false;
  WindowEdges edges = std::make_shared<std::vector<Edge>>();
  std::thread joiner([&] {
    edges = WaitForWindowClaim(claim, stream.get(), &cancelled);
  });
  // The claim is never fulfilled while the joiner waits; only Cancel can
  // release it.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  stream->Cancel();
  joiner.join();
  EXPECT_TRUE(cancelled);
  EXPECT_EQ(edges, nullptr);

  // Fulfilling afterwards is harmless (the claimant always fulfills), and
  // a fresh joiner on the same claim gets the result.
  FulfillWindowClaim(claim, std::make_shared<std::vector<Edge>>());
  bool late_cancelled = true;
  EXPECT_NE(WaitForWindowClaim(claim, stream.get(), &late_cancelled),
            nullptr);
  EXPECT_FALSE(late_cancelled);
}

TEST(WindowClaimTest, CancelBeforeWaitReturnsImmediately) {
  auto claim = std::make_shared<WindowClaim>();
  WindowStreamState stream(/*queue_capacity=*/1);
  stream.Cancel();
  bool cancelled = false;
  EXPECT_EQ(WaitForWindowClaim(claim, &stream, &cancelled), nullptr);
  EXPECT_TRUE(cancelled);
}

// ------------------------------------- family-threshold stream publishing --

// A live stream whose alert threshold is off the server's family grid warms
// the family cache by evaluating and keying published windows at the
// canonical grid value; the server's off-grid historical query then runs
// entirely from cache, filtered up to its exact threshold at assembly.
TEST(DangoronServerTest, FamilyPublishedStreamWarmsOffGridQueries) {
  const int64_t b = 8;
  const int64_t length = b * 30;
  TimeSeriesMatrix data = SmallClimate(5, length, 4010);
  const TimeSeriesMatrix copy = data;

  DangoronServerOptions options;
  options.basic_window = b;
  options.num_threads = 1;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("live", std::move(data)).ok());
  auto fingerprint = server.DatasetFingerprint("live");
  ASSERT_TRUE(fingerprint.ok());

  const double alert_threshold = 0.63;  // off the 0.05 grid
  const double canonical =
      server.CanonicalThreshold(alert_threshold, /*absolute=*/false);
  EXPECT_NE(canonical, alert_threshold);

  StreamingOptions stream_options;
  stream_options.basic_window = b;
  stream_options.window = b * 5;
  stream_options.step = b * 2;
  stream_options.threshold = alert_threshold;
  auto builder = StreamingNetworkBuilder::Create(5, stream_options);
  ASSERT_TRUE(builder.ok());
  ASSERT_TRUE(builder
                  ->PublishTo(server.mutable_result_cache(), *fingerprint,
                              canonical)
                  .ok());
  ASSERT_TRUE(builder->AppendColumns(copy, 0, length).ok());

  // Off-grid historical query: every window resolves from the published
  // family supersets — zero evaluation — and matches the exact truth at
  // the query's own threshold.
  const SlidingQuery query =
      MakeQuery(0, length, b * 5, b * 2, alert_threshold);
  auto result = server.Query(Request("live", query));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->windows_from_cache, query.NumWindows());
  EXPECT_EQ(result->windows_computed, 0);
  ExpectSeriesEqual(NaiveTruth(copy, query), result->series, 1e-8);

  // The family's grid value itself also rides the published windows (its
  // canonical threshold is the published key, bit-exactly).
  const SlidingQuery grid_query = MakeQuery(0, length, b * 5, b * 2, 0.6);
  auto grid_result = server.Query(Request("live", grid_query));
  ASSERT_TRUE(grid_result.ok());
  EXPECT_EQ(grid_result->windows_computed, 0);
  ExpectSeriesEqual(NaiveTruth(copy, grid_query), grid_result->series, 1e-8);
}

// ------------------------------------------------------------ serve tiers --

// Polls `counter` until it reaches `expected` — the sync point for
// observing a request parked in the admission queue from the outside.
template <typename Fn>
bool WaitForCount(Fn counter, int64_t expected) {
  for (int i = 0; i < 2000; ++i) {
    if (counter() >= expected) {
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return false;
}

// The acceptance property of the tier split: an approx request never
// touches the shared window-result cache (a following exact request on the
// same range recomputes everything and matches NaiveEngine), while both
// tiers share one prepared sketch.
TEST(ServeTierTest, ApproxBypassesWindowCacheAndSharesSketch) {
  const int64_t b = 8;
  const int64_t length = b * 40;
  TimeSeriesMatrix data = SmallClimate(6, length, 6001);
  const TimeSeriesMatrix copy = data;

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.6);

  QueryRequest approx_request{"d", query, ServeOptions{}};
  approx_request.options.tier = ServeTier::kApprox;
  auto approx = server.Query(approx_request);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_EQ(approx->tier_used, ServeTier::kApprox);
  EXPECT_EQ(approx->windows_computed, query.NumWindows());
  EXPECT_EQ(approx->windows_from_cache, 0);
  // Nothing was published: the window cache is untouched.
  EXPECT_EQ(server.stats().result_cache.entries, 0);
  EXPECT_EQ(server.stats().result_cache.insertions, 0);
  EXPECT_EQ(server.stats().queries_approx, 1);

  // The approx result is the deterministic Eq. 2 jumping run — identical to
  // driving the engine directly against its own build of the same index.
  DangoronOptions engine_options;
  engine_options.basic_window = b;
  engine_options.enable_jumping = true;
  DangoronEngine engine(engine_options);
  ASSERT_TRUE(engine.Prepare(copy).ok());
  auto jumped = engine.Query(query);
  ASSERT_TRUE(jumped.ok());
  ExpectSeriesEqual(*jumped, approx->series, 0.0);

  // An exact query on the same range finds no cached windows, recomputes,
  // and matches the naive truth — approx traffic cannot perturb it.
  QueryRequest exact_request{"d", query, ServeOptions{}};
  exact_request.options.tier = ServeTier::kExact;
  auto exact = server.Query(exact_request);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(exact->tier_used, ServeTier::kExact);
  EXPECT_EQ(exact->windows_from_cache, 0);
  EXPECT_EQ(exact->windows_computed, query.NumWindows());
  EXPECT_TRUE(exact->prepared_from_cache);  // one sketch serves both tiers
  ExpectSeriesEqual(NaiveTruth(copy, query), exact->series, 1e-8);
  EXPECT_EQ(server.stats().prepares_built, 1);
  EXPECT_EQ(server.stats().queries_approx, 1);
}

// Streaming approx submissions deliver the jumped windows in order through
// the bounded queue, report the tier and jump accounting in the summary,
// and leave the window cache untouched.
TEST(ServeTierTest, StreamingApproxDeliversJumpedWindows) {
  const int64_t b = 8;
  const int64_t length = b * 40;
  TimeSeriesMatrix data = SmallClimate(6, length, 6002);
  const TimeSeriesMatrix copy = data;

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.6);
  DangoronOptions engine_options;
  engine_options.basic_window = b;
  engine_options.enable_jumping = true;
  DangoronEngine engine(engine_options);
  ASSERT_TRUE(engine.Prepare(copy).ok());
  auto truth = engine.Query(query);
  ASSERT_TRUE(truth.ok());

  QueryRequest request{"d", query, ServeOptions{}};
  request.options.tier = ServeTier::kApprox;
  request.options.queue_capacity = 2;
  auto stream = server.SubmitStreaming(request);
  int64_t expected_index = 0;
  while (auto window = stream->Next()) {
    ASSERT_EQ(window->window_index, expected_index);
    const auto expected = truth->WindowEdges(window->window_index);
    ASSERT_EQ(window->edges->size(), expected.size())
        << "window " << window->window_index;
    for (size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ((*window->edges)[e].i, expected[e].i);
      EXPECT_EQ((*window->edges)[e].j, expected[e].j);
      EXPECT_EQ((*window->edges)[e].value, expected[e].value);
    }
    ++expected_index;
  }
  ASSERT_TRUE(stream->status().ok()) << stream->status().ToString();
  EXPECT_EQ(expected_index, query.NumWindows());
  EXPECT_EQ(stream->summary().tier_used, ServeTier::kApprox);
  EXPECT_EQ(stream->summary().windows_computed, query.NumWindows());
  EXPECT_EQ(server.stats().result_cache.entries, 0);
  EXPECT_EQ(server.stats().queries_approx, 1);
}

// Builds `dataset`'s full sketch with a one-window approx query at a
// disjoint threshold, so a following approx request pays only its walk.
void PrewarmSketch(DangoronServer* server, const std::string& dataset,
                   SlidingQuery query) {
  query.end = query.start + query.window;
  query.threshold = 0.5;
  ASSERT_TRUE(server->Query(ApproxRequest(dataset, query)).ok());
  ASSERT_TRUE(server->HasPreparedSketch(dataset));
}

// Teaches `server`'s exact-cost model a slow rate for `query`'s geometry:
// one exact query over its first sweep band, at a threshold family `query`
// does not use, with that band stalled `stall_ms`. The model learns from
// the engine pass's wall time, stall included, so it then prices the
// request above ~0.3 x stall_ms x (query cells / band cells) — in every
// build. The seeded 50 ns/cell cannot be used for this: a sanitizer
// build's approx walk costs 17+ ns/cell even at 99% cells jumped, so any
// deadline the seed misses leaves it under a 3x margin.
void TeachSlowExactCost(DangoronServer* server, const std::string& dataset,
                        SlidingQuery query, int64_t stall_ms) {
  query.end = query.start + (kSweepWindowBand - 1) * query.step + query.window;
  query.threshold = 0.5;
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("sweep.band=delay:" + std::to_string(stall_ms))
                  .ok());
  QueryRequest request = Request(dataset, query);
  request.options.tier = ServeTier::kExact;
  const Status taught = server->Query(request).status();
  FailpointRegistry::Instance().DisarmAll();
  ASSERT_TRUE(taught.ok()) << taught.ToString();
}

// kAuto resolves against the request's deadline and the server's exact-cost
// estimate. A fresh server's estimate is pessimistically seeded (50 ns/cell),
// so this ~2M-cell problem (62 windows x 32,640 pairs, ~101 ms) is priced
// above a 50 ms deadline and kAuto picks approx. The approx tier enforces
// that deadline at window cadence, so whether the walk then finishes in time
// depends on the build: the tier choice is what is asserted, and it is
// counted whatever the walk's outcome. Priced far below a 60 s deadline the
// request is exact; without a deadline it is always exact; and a warm range
// stays exact under a deadline its uncached price misses.
TEST(ServeTierTest, AutoTierFollowsDeadlinePressure) {
  const int64_t b = 8;
  const int64_t length = b * 66;
  TimeSeriesMatrix data = SmallClimate(256, length, 6003);

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 5, b, 0.7);
  QueryRequest request{"d", query, ServeOptions{}};
  request.options.tier = ServeTier::kAuto;

  request.options.deadline_ms = 50;
  auto tight = server.Query(request);
  if (tight.ok()) {
    EXPECT_EQ(tight->tier_used, ServeTier::kApprox);
  } else {
    EXPECT_EQ(tight.status().code(), StatusCode::kDeadlineExceeded)
        << tight.status().ToString();
  }
  EXPECT_EQ(server.stats().queries_approx, 1);  // the seed picked approx

  request.options.deadline_ms = 60'000;
  auto generous = server.Query(request);
  ASSERT_TRUE(generous.ok()) << generous.status().ToString();
  EXPECT_EQ(generous->tier_used, ServeTier::kExact);

  request.options.deadline_ms.reset();  // no deadline: reuse-friendly exact
  auto unhurried = server.Query(request);
  ASSERT_TRUE(unhurried.ok());
  EXPECT_EQ(unhurried->tier_used, ServeTier::kExact);

  // The exact queries above cached every window of this range: the same
  // deadline, which the uncached range still misses (the generous query's
  // one sample leaves the rate above 0.7 x the seed, ~70 ms for this range),
  // now resolves exact — the estimate discounts cache-covered windows, so a
  // warm range is never routed to approx.
  request.options.deadline_ms = 50;
  auto warm_tight = server.Query(request);
  ASSERT_TRUE(warm_tight.ok()) << warm_tight.status().ToString();
  EXPECT_EQ(warm_tight->tier_used, ServeTier::kExact);
  EXPECT_EQ(warm_tight->windows_from_cache, query.NumWindows());
  EXPECT_EQ(server.stats().queries_approx, 1);
}

// The on-time half of kAuto's approx choice, which needs a rate slow enough
// that a deadline the approx walk meets in every build still misses the
// exact estimate: 16 stalled windows of 15 pairs at 150 ms price this
// 35-window query at ~100 ms (see TeachSlowExactCost), and the approx walk
// over its 525 cells takes a few milliseconds even under TSan.
TEST(ServeTierTest, AutoTierAnswersApproxOnTimeUnderTaughtPressure) {
  if (!kServeFailpointsCompiled) {
    GTEST_SKIP() << "failpoints compiled out (DANGORON_FAILPOINTS=OFF)";
  }
  const int64_t b = 8;
  const int64_t length = b * 40;
  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", SmallClimate(6, length, 6003)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 6, b, 0.7);
  PrewarmSketch(&server, "d", query);
  TeachSlowExactCost(&server, "d", query, 150);
  QueryRequest request{"d", query, ServeOptions{}};
  request.options.tier = ServeTier::kAuto;
  request.options.deadline_ms = 50;
  auto tight = server.Query(request);
  ASSERT_TRUE(tight.ok()) << tight.status().ToString();
  EXPECT_EQ(tight->tier_used, ServeTier::kApprox);
}

// The cost sample prices only what a run computes. A band stream serving
// the suffix after a cached prefix must first fold every basic window the
// prefix covered — 4,000 slots here against the suffix run's own ~20 — and
// that catch-up stays out of the timed engine pass. Charged to the suffix's
// 16 x 496 cells it would teach a rate ~90x the sweep's real one. A kAuto
// probe priced at the seed plus 5x what the cold prefix query cost per
// cell end to end (an upper bound on its engine passes, in any build) must
// therefore still resolve exact.
TEST(ServeTierTest, CachedPrefixCatchUpStaysOutOfTheCostSample) {
  const int64_t b = 8;
  const int64_t n = 32;
  const double pairs = static_cast<double>(n * (n - 1) / 2);
  const int64_t window = b * 4;
  const int64_t prefix_windows = 4000;
  const int64_t num_windows = prefix_windows + kSweepWindowBand;
  const int64_t length = (num_windows - 1) * b + window;
  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", SmallClimate(n, length, 6010)).ok());

  const SlidingQuery full = MakeQuery(0, length, window, b, 0.95);
  SlidingQuery prefix = full;
  prefix.end = (prefix_windows - 1) * b + window;
  const auto began = std::chrono::steady_clock::now();
  ASSERT_TRUE(server.Query(Request("d", prefix)).ok());
  const double prefix_ns_per_cell =
      std::chrono::duration<double, std::nano>(
          std::chrono::steady_clock::now() - began)
          .count() /
      (static_cast<double>(prefix_windows) * pairs);
  auto suffix = server.Query(Request("d", full));
  ASSERT_TRUE(suffix.ok()) << suffix.status().ToString();
  ASSERT_EQ(suffix->windows_from_cache, prefix_windows);
  ASSERT_EQ(suffix->windows_computed, kSweepWindowBand);
  ASSERT_FALSE(server.HasPreparedSketch("d"));  // both plans band-streamed

  // 1,000 windows at a threshold family nothing cached.
  SlidingQuery probe_query = full;
  probe_query.end = 999 * b + window;
  probe_query.threshold = 0.9;
  const double seed_ns_per_cell = 50.0;
  const double probe_ns_per_cell = seed_ns_per_cell + 5.0 * prefix_ns_per_cell;
  QueryRequest probe = Request("d", probe_query);
  probe.options.tier = ServeTier::kAuto;
  probe.options.deadline_ms = static_cast<int64_t>(
      std::ceil(1000.0 * pairs * probe_ns_per_cell / 1e6));
  auto probed = server.Query(probe);
  if (!probed.ok()) {  // the exact walk may still run late in a slow build
    EXPECT_EQ(probed.status().code(), StatusCode::kDeadlineExceeded)
        << probed.status().ToString();
  }
  EXPECT_EQ(server.stats().queries_approx, 0)
      << "probe deadline " << *probe.options.deadline_ms << " ms";
}

// A request whose deadline has already passed when its task starts fails
// with DeadlineExceeded instead of running: the 1-thread FIFO pool is
// saturated with a train of full evaluations (distinct threshold families,
// so none rides the window cache), and the doomed request — queued behind
// all of them with a 1 ms deadline — can only start long after it passed.
TEST(ServeTierTest, ExpiredDeadlineFailsBeforeRunning) {
  const int64_t b = 8;
  const int64_t length = b * 60;
  TimeSeriesMatrix data = SmallClimate(128, length, 6004);

  DangoronServerOptions options;
  options.num_threads = 1;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  std::vector<std::future<Result<ServeResult>>> train;
  for (int i = 0; i < 6; ++i) {
    train.push_back(server.Submit(
        Request("d", MakeQuery(0, length, b * 6, b, 0.5 + 0.05 * i))));
  }
  QueryRequest request{"d", MakeQuery(0, length, b * 6, b, 0.9),
                       ServeOptions{}};
  request.options.deadline_ms = 1;
  auto doomed = server.Submit(request);
  for (auto& pending : train) {
    ASSERT_TRUE(pending.get().ok());
  }
  auto result = doomed.get();
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(server.stats().deadline_exceeded, 1);
}

// -------------------------------------------------------- queued admission --

// An oversized prepare under admission=queue parks until the pinning stream
// releases the warm sketch, then admits by evicting the now-idle entry —
// instead of the refuse policy's outright rejection. The queued-admission
// tests of full sketches run on the approx tier, which builds and caches
// them; exact streams' transient reservations have their own test below.
TEST(QueuedAdmissionTest, OversizedPrepareParksThenAdmitsAfterEviction) {
  const int64_t b = 8;
  const int64_t length = b * 44;
  TimeSeriesMatrix data_a = SmallClimate(5, length, 6005);
  TimeSeriesMatrix data_b = SmallClimate(5, length, 6006);
  const TimeSeriesMatrix copy_b = data_b;
  const int64_t estimate = PrepareEstimate(data_a, b);
  ASSERT_EQ(estimate, PrepareEstimate(data_b, b));  // same shape

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  options.sketch_cache_bytes = estimate + estimate / 2;  // fits one, not two
  options.admission = AdmissionPolicy::kQueue;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("a", std::move(data_a)).ok());
  ASSERT_TRUE(server.AddDataset("b", std::move(data_b)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.6);
  ASSERT_TRUE(server.Query(ApproxRequest("a", query)).ok());  // A cached

  // A live stream pins A's sketch: its producer holds the prepared handle
  // while blocked on the tiny undrained delivery queue.
  QueryRequest pin_request = ApproxRequest("a", query);
  pin_request.options.queue_capacity = 1;
  auto pin = server.SubmitStreaming(pin_request);
  ASSERT_TRUE(pin->Next().has_value());

  // B does not fit next to A, and A is pinned — the request parks.
  auto parked = server.Submit(ApproxRequest("b", query));
  ASSERT_TRUE(WaitForCount(
      [&] { return server.stats().prepares_queued; }, 1));
  EXPECT_EQ(server.stats().prepares_built, 1);

  // Releasing the stream frees A's handle; the parked request wakes, evicts
  // the now-idle entry, and completes.
  pin->Cancel();
  while (pin->Next().has_value()) {
  }
  auto admitted = parked.get();
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  ExpectSeriesEqual(JumpingTruth(copy_b, query, b), admitted->series, 0.0);

  const DangoronServerStats stats = server.stats();
  EXPECT_EQ(stats.prepares_queued, 1);
  EXPECT_EQ(stats.prepares_built, 2);
  EXPECT_EQ(stats.deadline_exceeded, 0);
}

// A parked request whose deadline passes is refused with DeadlineExceeded
// while the budget stays pinned.
TEST(QueuedAdmissionTest, ParkedPrepareRefusedAtDeadline) {
  const int64_t b = 8;
  const int64_t length = b * 44;
  TimeSeriesMatrix data_a = SmallClimate(5, length, 6007);
  TimeSeriesMatrix data_b = SmallClimate(5, length, 6008);
  const int64_t estimate = PrepareEstimate(data_a, b);

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  options.sketch_cache_bytes = estimate + estimate / 2;
  options.admission = AdmissionPolicy::kQueue;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("a", std::move(data_a)).ok());
  ASSERT_TRUE(server.AddDataset("b", std::move(data_b)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.6);
  ASSERT_TRUE(server.Query(ApproxRequest("a", query)).ok());
  QueryRequest pin_request = ApproxRequest("a", query);
  pin_request.options.queue_capacity = 1;
  auto pin = server.SubmitStreaming(pin_request);
  ASSERT_TRUE(pin->Next().has_value());

  QueryRequest request = ApproxRequest("b", query);
  request.options.deadline_ms = 100;
  auto result = server.Query(request);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);

  const DangoronServerStats stats = server.stats();
  EXPECT_EQ(stats.prepares_queued, 1);
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.prepares_built, 1);  // B never built

  pin->Cancel();
  while (pin->Next().has_value()) {
  }
}

// Cancelling a parked *streaming* request wakes it out of the admission
// queue promptly (the CancelWaker protocol), while the pinning stream is
// still live — the wake did not come from budget freeing up.
TEST(QueuedAdmissionTest, CancelledStreamLeavesQueuePromptly) {
  const int64_t b = 8;
  const int64_t length = b * 44;
  TimeSeriesMatrix data_a = SmallClimate(5, length, 6009);
  TimeSeriesMatrix data_b = SmallClimate(5, length, 6010);
  const int64_t estimate = PrepareEstimate(data_a, b);

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  options.sketch_cache_bytes = estimate + estimate / 2;
  options.admission = AdmissionPolicy::kQueue;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("a", std::move(data_a)).ok());
  ASSERT_TRUE(server.AddDataset("b", std::move(data_b)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.6);
  ASSERT_TRUE(server.Query(ApproxRequest("a", query)).ok());
  QueryRequest pin_request = ApproxRequest("a", query);
  pin_request.options.queue_capacity = 1;
  auto pin = server.SubmitStreaming(pin_request);
  ASSERT_TRUE(pin->Next().has_value());

  auto parked = server.SubmitStreaming(ApproxRequest("b", query));
  ASSERT_TRUE(WaitForCount(
      [&] { return server.stats().prepares_queued; }, 1));
  parked->Cancel();
  while (parked->Next().has_value()) {
  }
  EXPECT_EQ(parked->status().code(), StatusCode::kCancelled);
  EXPECT_EQ(server.stats().prepares_built, 1);

  pin->Cancel();
  while (pin->Next().has_value()) {
  }
}

// The admission queue is bounded: past admission_queue_limit parked
// prepares, further oversized requests are refused outright.
TEST(QueuedAdmissionTest, BoundedQueueRefusesPastLimit) {
  const int64_t b = 8;
  const int64_t length = b * 44;
  TimeSeriesMatrix data_a = SmallClimate(5, length, 6011);
  TimeSeriesMatrix data_b = SmallClimate(5, length, 6012);
  const TimeSeriesMatrix copy_b = data_b;
  const int64_t estimate = PrepareEstimate(data_a, b);

  DangoronServerOptions options;
  options.num_threads = 3;
  options.basic_window = b;
  options.sketch_cache_bytes = estimate + estimate / 2;
  options.admission = AdmissionPolicy::kQueue;
  options.admission_queue_limit = 1;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("a", std::move(data_a)).ok());
  ASSERT_TRUE(server.AddDataset("b", std::move(data_b)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.6);
  ASSERT_TRUE(server.Query(ApproxRequest("a", query)).ok());
  QueryRequest pin_request = ApproxRequest("a", query);
  pin_request.options.queue_capacity = 1;
  auto pin = server.SubmitStreaming(pin_request);
  ASSERT_TRUE(pin->Next().has_value());

  auto parked = server.Submit(ApproxRequest("b", query));
  ASSERT_TRUE(WaitForCount(
      [&] { return server.stats().prepares_queued; }, 1));
  auto refused = server.Query(ApproxRequest("b", query));
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_GE(server.stats().prepares_refused, 1);

  pin->Cancel();
  while (pin->Next().has_value()) {
  }
  auto admitted = parked.get();
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  ExpectSeriesEqual(JumpingTruth(copy_b, query, b), admitted->series, 0.0);
}

// An exact stream's working set is a transient admission reservation: a
// live exact stream pinned on an undrained queue holds it, a second exact
// request that does not fit next to it parks, and the reservation's
// release — when the pinned plan ends — admits it.
TEST(QueuedAdmissionTest, ExactStreamReservationParksUntilPlanEnds) {
  const int64_t b = 8;
  const int64_t length = b * 44;
  TimeSeriesMatrix data_a = SmallClimate(5, length, 6015);
  TimeSeriesMatrix data_b = SmallClimate(5, length, 6016);
  const TimeSeriesMatrix copy_b = data_b;
  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.6);
  DangoronOptions engine_options;
  engine_options.basic_window = b;
  engine_options.enable_jumping = false;
  const int64_t stream_bytes = DangoronEngine::EstimateStreamBytes(
      data_a.num_series(), length, engine_options, query);
  ASSERT_GT(stream_bytes, 0);

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  options.sketch_cache_bytes = stream_bytes + stream_bytes / 2;
  options.admission = AdmissionPolicy::kQueue;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("a", std::move(data_a)).ok());
  ASSERT_TRUE(server.AddDataset("b", std::move(data_b)).ok());

  QueryRequest stream_request = Request("a", query);
  stream_request.options.queue_capacity = 1;
  stream_request.options.max_batch_windows = 1;
  auto pin = server.SubmitStreaming(stream_request);
  ASSERT_TRUE(pin->Next().has_value());

  auto parked = server.Submit(QueryRequest{"b", query, ServeOptions{}});
  ASSERT_TRUE(WaitForCount(
      [&] { return server.stats().prepares_queued; }, 1));
  EXPECT_EQ(server.stats().prepares_built, 1);

  pin->Cancel();
  while (pin->Next().has_value()) {
  }
  auto admitted = parked.get();
  ASSERT_TRUE(admitted.ok()) << admitted.status().ToString();
  ExpectSeriesEqual(NaiveTruth(copy_b, query), admitted->series, 1e-8);
  const DangoronServerStats stats = server.stats();
  EXPECT_EQ(stats.prepares_built, 2);
  EXPECT_EQ(stats.sketch_cache.insertions, 0);
}

// A prepare that exceeds the *total* budget can never be admitted by any
// eviction: the queue refuses it immediately instead of parking forever.
TEST(QueuedAdmissionTest, NeverFittingPrepareRefusedImmediately) {
  const int64_t b = 8;
  TimeSeriesMatrix data = SmallClimate(6, b * 32, 6013);

  DangoronServerOptions options;
  options.num_threads = 1;
  options.basic_window = b;
  options.sketch_cache_bytes = 1024;
  options.admission = AdmissionPolicy::kQueue;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  const SlidingQuery query = MakeQuery(0, b * 32, b * 5, b * 2, 0.6);
  QueryRequest request{"d", query, ServeOptions{}};
  request.options.admission = AdmissionPolicy::kQueue;
  auto result = server.Query(request);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(server.stats().prepares_refused, 1);
  EXPECT_EQ(server.stats().prepares_queued, 0);
}

// -------------------------------------------------------------- robustness --

// Serving-stack tests that arm failpoints: every test starts and ends
// dormant so schedules cannot leak across tests (or into the rest of the
// suite), and the whole fixture skips when sites are compiled out.
class ServeFailpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kServeFailpointsCompiled) {
      GTEST_SKIP() << "failpoints compiled out (DANGORON_FAILPOINTS=OFF)";
    }
    FailpointRegistry::Instance().DisarmAll();
  }
  void TearDown() override { FailpointRegistry::Instance().DisarmAll(); }
};

// The request surface rejects a non-positive deadline up front — naming the
// offending value — instead of treating it as an instantly-expired clock.
TEST(DangoronServerTest, RejectsNonPositiveDeadlineNamingTheValue) {
  QueryRequest bare;
  bare.dataset = "d";
  bare.options.deadline_ms = -5;
  const Status invalid = bare.Validate();
  EXPECT_FALSE(invalid.ok());
  EXPECT_NE(invalid.message().find("-5"), std::string::npos)
      << invalid.ToString();
  bare.options.deadline_ms = 0;
  EXPECT_FALSE(bare.Validate().ok());
  bare.options.deadline_ms.reset();  // unset means no deadline: valid
  EXPECT_TRUE(bare.Validate().ok());

  const int64_t b = 8;
  DangoronServerOptions options;
  options.num_threads = 1;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", SmallClimate(3, b * 10, 7001)).ok());
  QueryRequest request{"d", MakeQuery(0, b * 10, b * 2, b, 0.7),
                       ServeOptions{}};
  request.options.deadline_ms = -5;
  auto result = server.Query(request);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("-5"), std::string::npos)
      << result.status().ToString();

  // The streaming surface fails the same way, terminally.
  auto stream = server.SubmitStreaming(request);
  EXPECT_FALSE(stream->Next().has_value());
  EXPECT_EQ(stream->status().code(), StatusCode::kInvalidArgument);
}

// A joiner blocked on a claim nobody fulfills gives up at its deadline —
// the third exit of the cancellable join wait, next to fulfillment and
// stream cancellation.
TEST(WindowClaimTest, DeadlineAbandonsUnfulfilledJoinWait) {
  auto claim = std::make_shared<WindowClaim>();
  WindowStreamState stream(/*queue_capacity=*/1);
  bool cancelled = false;
  bool deadline_hit = false;
  const DeadlineToken soon(std::chrono::steady_clock::now() +
                           std::chrono::milliseconds(20));
  WindowEdges edges =
      WaitForWindowClaim(claim, &stream, &cancelled, soon, &deadline_hit);
  EXPECT_EQ(edges, nullptr);
  EXPECT_FALSE(cancelled);
  EXPECT_TRUE(deadline_hit);

  // Fulfillment still wins over a not-yet-expired deadline, and a late
  // joiner with a deadline sees the fulfilled result immediately.
  FulfillWindowClaim(claim, std::make_shared<std::vector<Edge>>());
  bool late_deadline = true;
  const DeadlineToken later(std::chrono::steady_clock::now() +
                            std::chrono::milliseconds(20));
  EXPECT_NE(
      WaitForWindowClaim(claim, &stream, &cancelled, later, &late_deadline),
      nullptr);
  EXPECT_FALSE(late_deadline);
}

// An eviction listener may call back into the cache (the admission queue's
// re-check pattern), and a nested Put that evicts again must coalesce into
// the running notification instead of recursing listener -> Put ->
// listener without a depth bound.
TEST(LruCacheTest, EvictionListenerMayReenterWithoutRecursing) {
  WindowResultCache cache(250);
  auto edges = std::make_shared<std::vector<Edge>>();
  const auto key = [](int64_t start_bw) {
    return WindowKey::Make(1, 24, 4, start_bw, 0.8, false);
  };
  int notifications = 0;
  cache.SetEvictionListener([&] {
    ++notifications;
    // This Put itself evicts (the budget is already full): recursion here
    // would re-enter the listener and never terminate.
    cache.Put(key(1000 + notifications), edges, 100);
  });
  cache.Put(key(0), edges, 100);
  cache.Put(key(1), edges, 100);
  cache.Put(key(2), edges, 100);  // evicts key(0); listener evicts key(1)
  EXPECT_EQ(notifications, 1);
  const LruCacheStats stats = cache.stats();
  EXPECT_LE(stats.bytes, 250);
  EXPECT_EQ(stats.bytes, stats.entries * 100);  // byte accounting intact
  EXPECT_EQ(stats.evictions, 2);
}

// The hard-deadline acceptance path: a streaming exact query whose sweep is
// stalled (injected band delay) far past a short deadline terminates with
// DeadlineExceeded promptly after the band boundary — within two band
// widths of its deadline — after delivering the ascending prefix of
// windows that completed, which stays cache-reusable.
TEST_F(ServeFailpointTest, HardDeadlineAbortsMidSweepLeavingReusablePrefix) {
  const int64_t b = 8;
  const int64_t length = b * 80;
  TimeSeriesMatrix data = SmallClimate(6, length, 7002);

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());
  const SlidingQuery query = MakeQuery(0, length, b * 6, b, 0.6);
  ASSERT_GT(query.NumWindows(), 4 * kSweepWindowBand);

  // Every sweep band stalls 100 ms; a 25 ms deadline is blown inside the
  // first band. The whole query is one claimed run (no batch cap), so only
  // the sweep's per-band check can stop it before its five bands end.
  constexpr double kBandDelayMs = 100.0;
  constexpr double kDeadlineMs = 25.0;
  ASSERT_TRUE(
      FailpointRegistry::Instance().Configure("sweep.band=delay:100").ok());
  QueryRequest request{"d", query, ServeOptions{}};
  request.options.tier = ServeTier::kExact;
  request.options.deadline_ms = static_cast<int64_t>(kDeadlineMs);
  request.options.max_batch_windows = 0;
  Stopwatch timer;
  auto stream = server.SubmitStreaming(request);
  int64_t next_index = 0;
  while (auto window = stream->Next()) {
    EXPECT_EQ(window->window_index, next_index);  // an ascending prefix
    ++next_index;
  }
  // Submit to terminal status: the abort lands at most two band widths
  // past the deadline (one band of in-flight work plus delivery), or
  // within 5 ms of it.
  const double overshoot_ms = timer.ElapsedSeconds() * 1e3 - kDeadlineMs;
  EXPECT_TRUE(overshoot_ms <= 2.0 * kBandDelayMs || overshoot_ms <= 5.0)
      << "terminated " << overshoot_ms << " ms past the deadline, "
      << overshoot_ms / kBandDelayMs << " band widths";
  EXPECT_EQ(stream->status().code(), StatusCode::kDeadlineExceeded)
      << stream->status().ToString();
  EXPECT_LT(next_index, query.NumWindows());  // it really stopped early
  const DangoronServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.deadline_aborted_mid_run, 1);
  EXPECT_EQ(stats.inflight_window_claims, 0);  // no leaked claims

  // The completed prefix is already in the window cache: disarm the fault
  // and the follow-up exact query re-reads it instead of recomputing.
  FailpointRegistry::Instance().DisarmAll();
  auto warm = server.Query(Request("d", query));
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GE(warm->windows_from_cache, next_index);
}

// The approx tier enforces the hard deadline at window cadence on the
// collected surface too: an approx Query whose deadline passes before its
// walk is done fails with DeadlineExceeded as a mid-run abort instead of
// answering late. The stalled prepare (an injected 150 ms delay against a
// 50 ms deadline) makes the walk provably late; it stops at its first
// window.
TEST_F(ServeFailpointTest, ApproxQueryAbortsMidRunAtItsDeadline) {
  const int64_t b = 8;
  const int64_t length = b * 40;
  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", SmallClimate(6, length, 7010)).ok());
  const SlidingQuery query = MakeQuery(0, length, b * 6, b, 0.6);
  ASSERT_TRUE(
      FailpointRegistry::Instance().Configure("serve.prepare=delay:150").ok());
  QueryRequest request = ApproxRequest("d", query);
  request.options.deadline_ms = 50;
  auto result = server.Query(request);
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().ToString();
  const DangoronServerStats stats = server.stats();
  EXPECT_EQ(stats.deadline_exceeded, 1);
  EXPECT_EQ(stats.deadline_aborted_mid_run, 1);
  EXPECT_EQ(stats.queries_approx, 1);
  EXPECT_LT(stats.windows_computed, query.NumWindows());
}

// Graceful degradation, pre-run leg: an *explicitly* exact request whose
// deadline the exact cost estimate already misses is served approx under
// degrade=auto — and flagged, unlike kAuto's own tier selection. A fresh
// server's pessimistic seed prices this ~2M-cell problem at ~101 ms, past
// 50 ms, so the request degrades; the approx tier then enforces the 50 ms
// at window cadence, so the walk may or may not finish in time depending
// on the build — the degradation is counted either way.
TEST(ServeDegradeTest, ExplicitExactServedApproxUnderTightDeadline) {
  const int64_t b = 8;
  const int64_t length = b * 66;
  TimeSeriesMatrix data = SmallClimate(256, length, 7003);

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 5, b, 0.7);
  QueryRequest request{"d", query, ServeOptions{}};
  request.options.tier = ServeTier::kExact;
  request.options.degrade = DegradePolicy::kAuto;
  request.options.deadline_ms = 50;
  auto result = server.Query(request);
  if (result.ok()) {
    EXPECT_EQ(result->tier_used, ServeTier::kApprox);
    EXPECT_TRUE(result->degraded);
  } else {
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << result.status().ToString();
  }
  EXPECT_EQ(server.stats().degraded_to_approx, 1);
  EXPECT_EQ(server.stats().queries_approx, 1);

  // Without degrade (the default), the same request is never silently
  // degraded: it runs exact — finishing in time or failing its deadline.
  QueryRequest strict = request;
  strict.options.degrade = DegradePolicy::kOff;
  auto undegraded = server.Query(strict);
  if (undegraded.ok()) {
    EXPECT_EQ(undegraded->tier_used, ServeTier::kExact);
    EXPECT_FALSE(undegraded->degraded);
  } else {
    EXPECT_EQ(undegraded.status().code(), StatusCode::kDeadlineExceeded);
  }
  EXPECT_EQ(server.stats().degraded_to_approx, 1);  // unchanged
  EXPECT_EQ(server.stats().queries_approx, 1);
}

// The on-time half of the pre-run degradation: with a taught rate (~100 ms
// for this query, see TeachSlowExactCost) a 50 ms deadline degrades, and
// the approx walk over 525 cells meets it in every build.
TEST(ServeDegradeTest, DegradedRequestAnswersOnTimeUnderTaughtPressure) {
  if (!kServeFailpointsCompiled) {
    GTEST_SKIP() << "failpoints compiled out (DANGORON_FAILPOINTS=OFF)";
  }
  const int64_t b = 8;
  const int64_t length = b * 40;
  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", SmallClimate(6, length, 7003)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 6, b, 0.7);
  PrewarmSketch(&server, "d", query);
  TeachSlowExactCost(&server, "d", query, 150);
  const int64_t approx_before = server.stats().queries_approx;
  QueryRequest request{"d", query, ServeOptions{}};
  request.options.tier = ServeTier::kExact;
  request.options.degrade = DegradePolicy::kAuto;
  request.options.deadline_ms = 50;
  auto result = server.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tier_used, ServeTier::kApprox);
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(server.stats().degraded_to_approx, 1);
  EXPECT_EQ(server.stats().queries_approx, approx_before + 1);
}

// Transient prepare faults (IoError here) are absorbed by the bounded
// jittered retry loop: the query succeeds, the retries are counted, and
// exactly one build is ever paid.
TEST_F(ServeFailpointTest, TransientPrepareFailuresAreRetriedAndAbsorbed) {
  const int64_t b = 8;
  TimeSeriesMatrix data = SmallClimate(4, b * 20, 7004);
  const TimeSeriesMatrix copy = data;
  DangoronServerOptions options;
  options.num_threads = 1;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("serve.prepare=error:ioerror*2")
                  .ok());
  const SlidingQuery query = MakeQuery(0, b * 20, b * 4, b, 0.7);
  auto result = server.Query(Request("d", query));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSeriesEqual(NaiveTruth(copy, query), result->series, 1e-8);
  const DangoronServerStats stats = server.stats();
  EXPECT_EQ(stats.prepare_retries, 2);
  EXPECT_EQ(stats.prepares_built, 1);
}

// A persistent prepare fault exhausts the retry budget and surfaces as the
// failure it is — and does not poison the server: once the fault clears,
// the next query builds and serves normally.
TEST_F(ServeFailpointTest, PersistentPrepareFailureExhaustsBoundedRetries) {
  const int64_t b = 8;
  TimeSeriesMatrix data = SmallClimate(4, b * 20, 7005);
  const TimeSeriesMatrix copy = data;
  DangoronServerOptions options;
  options.num_threads = 1;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("serve.prepare=error:ioerror")
                  .ok());
  const SlidingQuery query = MakeQuery(0, b * 20, b * 4, b, 0.7);
  auto result = server.Query(Request("d", query));
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
  EXPECT_EQ(server.stats().prepare_retries, 3);  // kPrepareMaxRetries
  EXPECT_EQ(server.stats().prepares_built, 0);

  FailpointRegistry::Instance().DisarmAll();
  auto recovered = server.Query(Request("d", query));
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSeriesEqual(NaiveTruth(copy, query), recovered->series, 1e-8);
  EXPECT_EQ(server.stats().prepares_built, 1);
}

// Graceful degradation, mid-run leg: a prepare that dies of (injected)
// resource exhaustion — which is never retried; backoff cannot free a
// budget — falls back to the approx tier under degrade=auto and still
// answers, with the deterministic jumping result.
TEST_F(ServeFailpointTest, MidQueryResourceExhaustionDegradesToApprox) {
  const int64_t b = 8;
  const int64_t length = b * 40;
  TimeSeriesMatrix data = SmallClimate(6, length, 7006);
  const TimeSeriesMatrix copy = data;
  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());
  // Count-limited to the exact attempt: the degraded re-prepare succeeds.
  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("serve.prepare=error:resource_exhausted*1")
                  .ok());
  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.6);
  QueryRequest request{"d", query, ServeOptions{}};
  request.options.tier = ServeTier::kExact;
  request.options.degrade = DegradePolicy::kAuto;
  auto result = server.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tier_used, ServeTier::kApprox);
  EXPECT_TRUE(result->degraded);
  const DangoronServerStats stats = server.stats();
  EXPECT_EQ(stats.degraded_to_approx, 1);
  EXPECT_EQ(stats.queries_approx, 1);
  EXPECT_EQ(stats.queries, 1);  // the fallback is not a second query
  EXPECT_EQ(stats.prepare_retries, 0);  // ResourceExhausted never retries

  DangoronOptions engine_options;
  engine_options.basic_window = b;
  engine_options.enable_jumping = true;
  DangoronEngine engine(engine_options);
  ASSERT_TRUE(engine.Prepare(copy).ok());
  auto jumped = engine.Query(query);
  ASSERT_TRUE(jumped.ok());
  ExpectSeriesEqual(*jumped, result->series, 0.0);
}

// The mid-run degrade leg resumes where the exact plan stopped, on every
// surface: a collected exact Query whose first p windows are cached keeps
// them, and only the suffix its band-stream build could not serve (an
// injected ResourceExhausted) continues on the approx tier — under the
// original window indices, equal to a jumping run over the suffix range.
TEST_F(ServeFailpointTest, CollectedDegradeResumesAfterTheCachedPrefix) {
  const int64_t b = 8;
  const int64_t length = b * 40;
  TimeSeriesMatrix data = SmallClimate(6, length, 7011);
  const TimeSeriesMatrix copy = data;
  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());

  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.6);
  const int64_t n = query.NumWindows();
  const int64_t p = 5;
  ASSERT_GT(n, p);
  SlidingQuery prefix = query;
  prefix.end = (p - 1) * query.step + query.window;
  ASSERT_EQ(prefix.NumWindows(), p);
  ASSERT_TRUE(server.Query(Request("d", prefix)).ok());  // caches [0, p)

  ASSERT_TRUE(FailpointRegistry::Instance()
                  .Configure("serve.prepare=error:resource_exhausted*1")
                  .ok());
  QueryRequest request = Request("d", query);
  request.options.tier = ServeTier::kExact;
  request.options.degrade = DegradePolicy::kAuto;
  auto result = server.Query(request);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tier_used, ServeTier::kApprox);
  EXPECT_TRUE(result->degraded);
  EXPECT_EQ(result->windows_from_cache, p);
  EXPECT_EQ(result->windows_computed, n - p);
  ASSERT_EQ(result->series.num_windows(), n);

  const CorrelationMatrixSeries truth = NaiveTruth(copy, query);
  SlidingQuery suffix = query;
  suffix.start = query.start + p * query.step;
  const CorrelationMatrixSeries jumped = JumpingTruth(copy, suffix, b);
  ASSERT_EQ(jumped.num_windows(), n - p);
  for (int64_t k = 0; k < n; ++k) {
    const auto got = result->series.WindowEdges(k);
    const auto expected =
        k < p ? truth.WindowEdges(k) : jumped.WindowEdges(k - p);
    ASSERT_EQ(got.size(), expected.size()) << "window " << k;
    for (size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ(got[e].i, expected[e].i) << "window " << k;
      EXPECT_EQ(got[e].j, expected[e].j) << "window " << k;
      if (k < p) {
        EXPECT_NEAR(got[e].value, expected[e].value, 1e-8) << "window " << k;
      } else {
        EXPECT_EQ(got[e].value, expected[e].value) << "window " << k;
      }
    }
  }
}

// Spurious full-queue reports from the opportunistic delivery path must
// never drop or reorder a window: the blocking between-runs delivery picks
// up whatever TryPush spuriously refused.
TEST_F(ServeFailpointTest, SpuriousPushFailuresNeverDropOrReorderWindows) {
  const int64_t b = 8;
  const int64_t length = b * 40;
  TimeSeriesMatrix data = SmallClimate(5, length, 7007);
  const TimeSeriesMatrix copy = data;
  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", std::move(data)).ok());
  ASSERT_TRUE(
      FailpointRegistry::Instance().Configure("stream.try_push=wake%50").ok());
  const SlidingQuery query = MakeQuery(0, length, b * 6, b * 2, 0.6);
  const CorrelationMatrixSeries truth = NaiveTruth(copy, query);
  auto stream = server.SubmitStreaming(Request("d", query));
  int64_t next_index = 0;
  while (auto window = stream->Next()) {
    ASSERT_EQ(window->window_index, next_index);
    const auto expected = truth.WindowEdges(next_index);
    ASSERT_EQ(window->edges->size(), expected.size())
        << "window " << next_index;
    for (size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ((*window->edges)[e].i, expected[e].i);
      EXPECT_EQ((*window->edges)[e].j, expected[e].j);
      EXPECT_NEAR((*window->edges)[e].value, expected[e].value, 1e-8);
    }
    ++next_index;
  }
  ASSERT_TRUE(stream->status().ok()) << stream->status().ToString();
  EXPECT_EQ(next_index, query.NumWindows());
}

// A nonzero max_batch_windows caps a claimed run in whole sweep bands: a
// cold exact stream costs one engine pass per kSweepWindowBand windows, not
// one per max_batch_windows windows, so the sketch's dot-prefix block is
// streamed once per band. The sweep.band failpoint counts the passes. The
// first window arrives before the last band has run: the stream delivers
// at band cadence, not once the whole query is done.
TEST_F(ServeFailpointTest, StreamingExactPlanEvaluatesWholeSweepBands) {
  const int64_t b = 8;
  const int64_t length = b * 55;
  const TimeSeriesMatrix data = SmallClimate(5, length, 7009);
  const SlidingQuery query = MakeQuery(0, length, b * 6, b, 0.6);
  const int64_t num_windows = query.NumWindows();
  ASSERT_GE(num_windows, 48);
  const CorrelationMatrixSeries truth = NaiveTruth(data, query);
  ASSERT_TRUE(
      FailpointRegistry::Instance().Configure("sweep.band=delay:0").ok());
  const Failpoint* band =
      FailpointRegistry::Instance().GetOrCreate("sweep.band");

  for (const int64_t max_batch : {int64_t{1}, int64_t{4}}) {
    SCOPED_TRACE(max_batch);
    DangoronServerOptions options;
    options.num_threads = 2;
    options.basic_window = b;
    DangoronServer server(options);
    ASSERT_TRUE(server.AddDataset("d", data).ok());
    QueryRequest request{"d", query, ServeOptions{}};
    request.options.tier = ServeTier::kExact;
    request.options.max_batch_windows = max_batch;

    const int64_t hits_before = band->hits();
    auto stream = server.SubmitStreaming(request);
    int64_t next_index = 0;
    int64_t bands_at_first_window = -1;
    while (auto window = stream->Next()) {
      if (next_index == 0) {
        bands_at_first_window = band->hits() - hits_before;
      }
      ASSERT_EQ(window->window_index, next_index);
      const auto expected = truth.WindowEdges(next_index);
      ASSERT_EQ(window->edges->size(), expected.size())
          << "window " << next_index;
      for (size_t e = 0; e < expected.size(); ++e) {
        EXPECT_EQ((*window->edges)[e].i, expected[e].i);
        EXPECT_EQ((*window->edges)[e].j, expected[e].j);
        EXPECT_NEAR((*window->edges)[e].value, expected[e].value, 1e-8);
      }
      ++next_index;
    }
    ASSERT_TRUE(stream->status().ok()) << stream->status().ToString();
    EXPECT_EQ(next_index, num_windows);
    EXPECT_EQ(stream->summary().windows_computed, num_windows);
    EXPECT_EQ(band->hits() - hits_before,
              CeilDiv(num_windows, kSweepWindowBand));
    EXPECT_GE(bands_at_first_window, 1);
    EXPECT_LT(bands_at_first_window, CeilDiv(num_windows, kSweepWindowBand));
  }
}

// A wire client may send any ServeOptions value Validate accepts. A
// deadline or a run cap of INT64_MAX must serve like no deadline and no
// cap: the deadline's ms -> ns conversion must not overflow into the past
// (the request would fail at once with DeadlineExceeded), and the cap's
// rounding up to whole sweep bands must not overflow negative (every run
// would shrink to one window, one engine pass each). The hostile values
// travel through the wire codec, as a client's would.
TEST_F(ServeFailpointTest, HostileInt64OptionsServeAsUnbounded) {
  const int64_t b = 8;
  const int64_t length = b * 55;
  const TimeSeriesMatrix data = SmallClimate(5, length, 7011);
  const SlidingQuery query = MakeQuery(0, length, b * 6, b, 0.6);
  ASSERT_TRUE(
      FailpointRegistry::Instance().Configure("sweep.band=delay:0").ok());
  const Failpoint* band =
      FailpointRegistry::Instance().GetOrCreate("sweep.band");

  // Serves `options` on a fresh server: the windows and the engine passes.
  auto serve = [&](const ServeOptions& options) {
    DangoronServerOptions server_options;
    server_options.basic_window = b;
    DangoronServer server(server_options);
    EXPECT_TRUE(server.AddDataset("d", data).ok());
    const int64_t hits_before = band->hits();
    auto result = server.Query(QueryRequest{"d", query, options});
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    std::vector<std::vector<Edge>> windows;
    if (result.ok()) {
      for (int64_t k = 0; k < result->series.num_windows(); ++k) {
        const auto edges = result->series.WindowEdges(k);
        windows.emplace_back(edges.begin(), edges.end());
      }
    }
    return std::pair{windows, band->hits() - hits_before};
  };

  // Byte-identical windows: the same edges with the same value bits.
  auto same_bits = [](const std::vector<std::vector<Edge>>& a,
                      const std::vector<std::vector<Edge>>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const std::vector<Edge>& x,
                         const std::vector<Edge>& y) {
                        return std::equal(
                            x.begin(), x.end(), y.begin(), y.end(),
                            [](const Edge& e, const Edge& f) {
                              return e.i == f.i && e.j == f.j &&
                                     std::bit_cast<uint64_t>(e.value) ==
                                         std::bit_cast<uint64_t>(f.value);
                            });
                      });
  };

  ServeOptions unbounded;
  unbounded.tier = ServeTier::kExact;
  unbounded.max_batch_windows = 0;
  const auto [expected, expected_bands] = serve(unbounded);
  ASSERT_EQ(static_cast<int64_t>(expected.size()), query.NumWindows());
  EXPECT_EQ(expected_bands, CeilDiv(query.NumWindows(), kSweepWindowBand));

  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  for (const auto& [deadline_ms, max_batch] :
       {std::pair{kMax, int64_t{0}}, std::pair{int64_t{0}, kMax},
        std::pair{kMax, kMax}}) {
    SCOPED_TRACE(testing::Message() << "deadline_ms " << deadline_ms
                                    << ", max_batch_windows " << max_batch);
    WireRequest sent;
    sent.dataset = "d";
    sent.query = query;
    sent.options = unbounded;
    if (deadline_ms > 0) {
      sent.options.deadline_ms = deadline_ms;
    }
    sent.options.max_batch_windows = max_batch;
    std::string frame;
    EncodeRequestFrame(sent, &frame);
    WireRequest received;
    ASSERT_TRUE(DecodeRequestPayload(
                    std::span<const uint8_t>(
                        reinterpret_cast<const uint8_t*>(frame.data()),
                        frame.size())
                        .subspan(kFrameHeaderBytes),
                    &received)
                    .ok());
    ASSERT_TRUE(
        (QueryRequest{"d", query, received.options}).Validate().ok());

    const auto [windows, bands] = serve(received.options);
    EXPECT_TRUE(same_bits(windows, expected));
    EXPECT_EQ(bands, expected_bands);
  }
}

// A joiner whose claimant is cancelled mid-run re-resolves the window and
// evaluates it through the normal claimed-run path. Query A claims a whole
// sweep band and stalls in it; query B starts one window later, so its
// first window joins A's claim on window 1. A is cancelled during the
// stall: it lands window 0 and retires windows 1.. unfulfilled, so B's
// join comes back empty. B must still deliver the exact answer, and no
// claim may outlive the two plans.
TEST_F(ServeFailpointTest, JoinerOfACancelledClaimantReResolvesTheWindow) {
  const int64_t b = 8;
  const int64_t length = b * 40;
  const TimeSeriesMatrix data = SmallClimate(6, length, 7011);
  const SlidingQuery query_a = MakeQuery(0, length, b * 6, b, 0.6);
  SlidingQuery query_b = query_a;
  query_b.start += query_a.step;
  const CorrelationMatrixSeries truth = NaiveTruth(data, query_b);

  DangoronServerOptions options;
  options.num_threads = 2;
  options.basic_window = b;
  DangoronServer server(options);
  ASSERT_TRUE(server.AddDataset("d", data).ok());

  // Only A's first band stalls; B's own evaluation runs undelayed. B joins
  // within microseconds of its submit, far inside the stall.
  ASSERT_TRUE(
      FailpointRegistry::Instance().Configure("sweep.band=delay:500*1").ok());
  QueryRequest request_a = Request("d", query_a);
  request_a.options.tier = ServeTier::kExact;
  auto stream_a = server.SubmitStreaming(request_a);
  ASSERT_TRUE(WaitForCount(
      [&] { return server.stats().inflight_window_claims; }, 2));
  QueryRequest request_b = Request("d", query_b);
  request_b.options.tier = ServeTier::kExact;
  auto stream_b = server.SubmitStreaming(request_b);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  stream_a->Cancel();

  int64_t next_index = 0;
  while (auto window = stream_b->Next()) {
    ASSERT_EQ(window->window_index, next_index);
    const auto expected = truth.WindowEdges(next_index);
    ASSERT_EQ(window->edges->size(), expected.size())
        << "window " << next_index;
    for (size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ((*window->edges)[e].i, expected[e].i);
      EXPECT_EQ((*window->edges)[e].j, expected[e].j);
      EXPECT_NEAR((*window->edges)[e].value, expected[e].value, 1e-8);
    }
    ++next_index;
  }
  ASSERT_TRUE(stream_b->status().ok()) << stream_b->status().ToString();
  EXPECT_EQ(next_index, query_b.NumWindows());
  EXPECT_EQ(stream_b->summary().windows_joined, 0);
  EXPECT_EQ(stream_b->summary().windows_computed, query_b.NumWindows());

  while (stream_a->Next().has_value()) {
  }
  EXPECT_EQ(stream_a->status().code(), StatusCode::kCancelled)
      << stream_a->status().ToString();
  EXPECT_EQ(server.stats().inflight_window_claims, 0);
}

// A consumer that cancels and drains concurrently with server destruction:
// teardown cancels active streams and joins producers while the consumer
// races it through the same stream state — no deadlock, no use-after-free
// (the state is shared ownership), and the stream still reaches a terminal
// status. Run under TSan for the memory-order half of the claim.
TEST(StreamingSubmitTest, DrainAfterCancelRacesServerTeardown) {
  const int64_t b = 8;
  const int64_t length = b * 40;
  const TimeSeriesMatrix data = SmallClimate(5, length, 7008);
  const SlidingQuery query = MakeQuery(0, length, b * 6, b, 0.6);

  for (int round = 0; round < 8; ++round) {
    DangoronServerOptions options;
    options.num_threads = 2;
    options.basic_window = b;
    auto server = std::make_unique<DangoronServer>(options);
    ASSERT_TRUE(server->AddDataset("d", data).ok());

    QueryRequest stream_request = Request("d", query);
    // The producer blocks on delivery.
    stream_request.options.queue_capacity = 1;
    stream_request.options.max_batch_windows = 1;
    auto stream = server->SubmitStreaming(stream_request);
    ASSERT_TRUE(stream->Next().has_value());

    std::thread consumer([&] {
      stream->Cancel();
      while (stream->Next().has_value()) {
      }
    });
    server.reset();  // races the cancel + drain
    consumer.join();
    const StatusCode code = stream->status().code();
    EXPECT_TRUE(code == StatusCode::kOk || code == StatusCode::kCancelled)
        << stream->status().ToString();
  }
}

}  // namespace
}  // namespace dangoron
