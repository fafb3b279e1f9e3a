// Tests of the window-emission pipeline at the engine layer: every engine
// drives a WindowSink in ascending window order, the collecting sink
// reproduces the materialized Query byte for byte, and the sink's false
// return cancels a query mid-stream.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/logging.h"
#include "engine/dangoron_engine.h"
#include "engine/factory.h"
#include "engine/window_sink.h"
#include "ts/generators.h"

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

// Records the full emission protocol for inspection.
class RecordingSink : public WindowSink {
 public:
  Status OnBegin(const SlidingQuery& query, int64_t num_series) override {
    ++begins;
    query_seen = query;
    num_series_seen = num_series;
    return Status::Ok();
  }
  bool OnWindow(int64_t window_index, std::vector<Edge> edges) override {
    indices.push_back(window_index);
    windows.push_back(std::move(edges));
    return cancel_after < 0 ||
           static_cast<int64_t>(windows.size()) <= cancel_after;
  }
  void OnFinish(const Status& status) override {
    ++finishes;
    final_status = status;
  }

  int64_t cancel_after = -1;  ///< cancel once this many windows arrived
  int begins = 0;
  int finishes = 0;
  SlidingQuery query_seen;
  int64_t num_series_seen = 0;
  std::vector<int64_t> indices;
  std::vector<std::vector<Edge>> windows;
  Status final_status = Status::Ok();
};

SlidingQuery TestQuery(int64_t length) {
  SlidingQuery query;
  query.start = 0;
  query.end = length;
  query.window = 8 * 5;
  query.step = 8 * 2;
  query.threshold = 0.6;
  return query;
}

// The load-bearing pipeline property: for every engine, the sink emission
// is byte-identical (same edges, bitwise-equal values) to the materialized
// Query — which is itself the collecting sink, so the pre-refactor result
// path survives unchanged.
TEST(WindowSinkTest, EmissionMatchesMaterializedQueryForAllEngines) {
  const int64_t length = 8 * 30;
  TimeSeriesMatrix data = SmallClimate(7, length, 9001);
  const SlidingQuery query = TestQuery(length);

  const std::vector<std::pair<std::string, std::string>> engines = {
      {"naive", ""},
      {"tsubasa", "basic_window=8"},
      {"dangoron", "basic_window=8,jump=off"},
      {"dangoron", "basic_window=8,jump=on"},
      {"dangoron", "basic_window=8,jump=on,threads=3"},
      {"parcorr", "dim=32"},
      {"parcorr", "dim=32,verify=on,margin=0.2"},
  };
  for (const auto& [name, options] : engines) {
    SCOPED_TRACE(name + " " + options);
    auto engine = CreateEngine(name, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->Prepare(data).ok());

    auto materialized = (*engine)->Query(query);
    ASSERT_TRUE(materialized.ok()) << materialized.status().ToString();

    RecordingSink sink;
    ASSERT_TRUE((*engine)->QueryToSink(query, &sink).ok());
    EXPECT_EQ(sink.begins, 1);
    EXPECT_EQ(sink.finishes, 1);
    EXPECT_TRUE(sink.final_status.ok());
    EXPECT_EQ(sink.num_series_seen, data.num_series());

    ASSERT_EQ(static_cast<int64_t>(sink.windows.size()),
              materialized->num_windows());
    for (int64_t k = 0; k < materialized->num_windows(); ++k) {
      EXPECT_EQ(sink.indices[static_cast<size_t>(k)], k);  // ascending order
      const auto expected = materialized->WindowEdges(k);
      const auto& emitted = sink.windows[static_cast<size_t>(k)];
      ASSERT_EQ(emitted.size(), expected.size()) << "window " << k;
      for (size_t e = 0; e < expected.size(); ++e) {
        // Edge operator== compares values bitwise-exactly.
        EXPECT_EQ(emitted[e], expected[e]) << "window " << k << " edge " << e;
      }
    }
  }
}

TEST(WindowSinkTest, SinkCancellationStopsEveryEngine) {
  const int64_t length = 8 * 30;
  TimeSeriesMatrix data = SmallClimate(5, length, 9002);
  const SlidingQuery query = TestQuery(length);
  ASSERT_GT(query.NumWindows(), 3);

  for (const char* name : {"naive", "tsubasa", "dangoron", "parcorr"}) {
    SCOPED_TRACE(name);
    auto engine = CreateEngine(name, name == std::string("naive") ||
                                         name == std::string("parcorr")
                                     ? ""
                                     : "basic_window=8");
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE((*engine)->Prepare(data).ok());

    RecordingSink sink;
    sink.cancel_after = 2;
    const Status status = (*engine)->QueryToSink(query, &sink);
    EXPECT_EQ(status.code(), StatusCode::kCancelled);
    EXPECT_EQ(sink.finishes, 1);
    EXPECT_EQ(sink.final_status.code(), StatusCode::kCancelled);
    // The third OnWindow returned false; nothing was emitted after it.
    EXPECT_EQ(static_cast<int64_t>(sink.windows.size()), 3);
  }
}

// Window-by-window engines must stop *computing* on cancellation, not just
// stop emitting: the whole point of the pipeline for a consumer that found
// what it needed early.
TEST(WindowSinkTest, CancellationSavesWorkOnWindowMajorEngines) {
  const int64_t length = 8 * 40;
  TimeSeriesMatrix data = SmallClimate(6, length, 9003);
  const SlidingQuery query = TestQuery(length);
  const int64_t num_windows = query.NumWindows();
  ASSERT_GT(num_windows, 4);

  auto engine = CreateEngine("naive");
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE((*engine)->Prepare(data).ok());

  RecordingSink sink;
  sink.cancel_after = 0;  // cancel at the first window
  EXPECT_EQ((*engine)->QueryToSink(query, &sink).code(),
            StatusCode::kCancelled);
  const int64_t n = data.num_series();
  const int64_t pairs = n * (n - 1) / 2;
  // Exactly one window's pair sweep ran, not num_windows of them.
  EXPECT_EQ((*engine)->stats().cells_evaluated, pairs);
}

}  // namespace
}  // namespace dangoron
