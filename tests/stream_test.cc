#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "engine/dangoron_engine.h"
#include "engine/window_sink.h"
#include "stream/streaming_builder.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

// Collects the windows the open-ended (no OnBegin) stream producer emits.
class CollectingSink : public WindowSink {
 public:
  bool OnWindow(int64_t window_index, std::vector<Edge> edges) override {
    indices.push_back(window_index);
    windows.push_back(std::move(edges));
    return accept;
  }
  bool accept = true;
  std::vector<int64_t> indices;
  std::vector<std::vector<Edge>> windows;
};

StreamingOptions SmallOptions() {
  StreamingOptions options;
  options.basic_window = 8;
  options.window = 32;   // ns = 4
  options.step = 8;      // m = 1
  options.threshold = 0.7;
  return options;
}

TEST(StreamingBuilderTest, CreateValidation) {
  StreamingOptions options = SmallOptions();
  EXPECT_TRUE(StreamingNetworkBuilder::Create(4, options).ok());
  EXPECT_FALSE(StreamingNetworkBuilder::Create(1, options).ok());

  options.window = 30;  // not a multiple of b=8
  EXPECT_FALSE(StreamingNetworkBuilder::Create(4, options).ok());
  options = SmallOptions();
  options.step = 12;
  EXPECT_FALSE(StreamingNetworkBuilder::Create(4, options).ok());
  options = SmallOptions();
  options.basic_window = 0;
  EXPECT_FALSE(StreamingNetworkBuilder::Create(4, options).ok());
  options = SmallOptions();
  options.threshold = 2.0;
  EXPECT_FALSE(StreamingNetworkBuilder::Create(4, options).ok());
}

TEST(StreamingBuilderTest, AppendValidation) {
  auto builder = StreamingNetworkBuilder::Create(3, SmallOptions());
  ASSERT_TRUE(builder.ok());
  const std::vector<double> wrong_size = {1.0, 2.0};
  EXPECT_FALSE(builder->Append(wrong_size).ok());
  const std::vector<double> with_nan = {1.0, MissingValue(), 2.0};
  EXPECT_FALSE(builder->Append(with_nan).ok());
  const std::vector<double> good = {1.0, 2.0, 3.0};
  EXPECT_TRUE(builder->Append(good).ok());
}

TEST(StreamingBuilderTest, NoSnapshotBeforeFirstFullWindow) {
  auto builder = StreamingNetworkBuilder::Create(2, SmallOptions());
  ASSERT_TRUE(builder.ok());
  CollectingSink sink;
  builder->EmitTo(&sink);
  Rng rng(1);
  std::vector<double> column(2);
  for (int64_t t = 0; t < 31; ++t) {  // one short of the window
    column[0] = rng.NextGaussian();
    column[1] = rng.NextGaussian();
    ASSERT_TRUE(builder->Append(column).ok());
  }
  EXPECT_TRUE(sink.indices.empty());

  column[0] = rng.NextGaussian();
  column[1] = rng.NextGaussian();
  ASSERT_TRUE(builder->Append(column).ok());
  EXPECT_EQ(sink.indices, std::vector<int64_t>{0});
}

TEST(StreamingBuilderTest, SnapshotIndexingAndCadence) {
  StreamingOptions options = SmallOptions();
  options.step = 16;  // m = 2
  auto builder = StreamingNetworkBuilder::Create(2, options);
  ASSERT_TRUE(builder.ok());
  CollectingSink sink;
  builder->EmitTo(&sink);
  Rng rng(2);
  std::vector<double> column(2);
  // 96 columns: windows at bw counts 4, 6, 8, ... -> columns 32, 48, ... 96.
  for (int64_t t = 0; t < 96; ++t) {
    column[0] = rng.NextGaussian();
    column[1] = rng.NextGaussian();
    ASSERT_TRUE(builder->Append(column).ok());
  }
  // At columns 32, 48, 64, 80 and 96.
  EXPECT_EQ(sink.indices, (std::vector<int64_t>{0, 1, 2, 3, 4}));
}

// The load-bearing property: streaming output == offline exact engine.
TEST(StreamingBuilderTest, MatchesOfflineEngineExactly) {
  ClimateSpec spec;
  spec.num_stations = 10;
  spec.num_hours = 24 * 40;
  spec.seed = 77;
  auto dataset = GenerateClimate(spec);
  ASSERT_TRUE(dataset.ok());
  const TimeSeriesMatrix& data = dataset->data;

  StreamingOptions options;
  options.basic_window = 24;
  options.window = 24 * 7;
  options.step = 24;
  options.threshold = 0.75;

  auto builder = StreamingNetworkBuilder::Create(data.num_series(), options);
  ASSERT_TRUE(builder.ok());
  CollectingSink sink;
  builder->EmitTo(&sink);
  ASSERT_TRUE(builder->AppendColumns(data, 0, data.length()).ok());

  DangoronOptions engine_options;
  engine_options.basic_window = 24;
  engine_options.enable_jumping = false;
  DangoronEngine engine(engine_options);
  ASSERT_TRUE(engine.Prepare(data).ok());
  SlidingQuery query;
  query.start = 0;
  query.end = data.length();
  query.window = options.window;
  query.step = options.step;
  query.threshold = options.threshold;
  auto offline = engine.Query(query);
  ASSERT_TRUE(offline.ok());

  ASSERT_EQ(static_cast<int64_t>(sink.indices.size()),
            offline->num_windows());
  for (int64_t k = 0; k < offline->num_windows(); ++k) {
    EXPECT_EQ(sink.indices[static_cast<size_t>(k)], k);
    const std::vector<Edge>& edges = sink.windows[static_cast<size_t>(k)];
    const auto expected = offline->WindowEdges(k);
    ASSERT_EQ(edges.size(), expected.size()) << "window " << k;
    for (size_t e = 0; e < expected.size(); ++e) {
      EXPECT_EQ(edges[e].i, expected[e].i);
      EXPECT_EQ(edges[e].j, expected[e].j);
      EXPECT_NEAR(edges[e].value, expected[e].value, 1e-9) << "window " << k;
    }
  }
}

TEST(StreamingBuilderTest, IncrementalFeedMatchesBulkFeed) {
  Rng rng(5);
  TimeSeriesMatrix data = GenerateWhiteNoise(6, 24 * 20, &rng);

  StreamingOptions options;
  options.basic_window = 24;
  options.window = 24 * 5;
  options.step = 24 * 2;
  options.threshold = 0.0;  // dense: stresses the value path

  auto bulk = StreamingNetworkBuilder::Create(6, options);
  ASSERT_TRUE(bulk.ok());
  CollectingSink bulk_sink;
  bulk->EmitTo(&bulk_sink);
  ASSERT_TRUE(bulk->AppendColumns(data, 0, data.length()).ok());

  auto piecewise = StreamingNetworkBuilder::Create(6, options);
  ASSERT_TRUE(piecewise.ok());
  CollectingSink piecewise_sink;
  piecewise->EmitTo(&piecewise_sink);
  int64_t position = 0;
  Rng chunk_rng(9);
  while (position < data.length()) {
    const int64_t chunk = std::min<int64_t>(
        data.length() - position, chunk_rng.NextInt(1, 50));
    ASSERT_TRUE(piecewise->AppendColumns(data, position, chunk).ok());
    position += chunk;
  }

  ASSERT_FALSE(bulk_sink.windows.empty());
  EXPECT_EQ(bulk_sink.indices, piecewise_sink.indices);
  EXPECT_EQ(bulk_sink.windows, piecewise_sink.windows);
}

// With no sink attached the builder folds basic windows but emits nothing;
// a sink attached mid-stream receives the next due window under the
// builder's own numbering, with the same edges an always-attached sink got.
TEST(StreamingBuilderTest, SinkAttachedMidStreamContinuesNumbering) {
  Rng rng(7);
  TimeSeriesMatrix data = GenerateWhiteNoise(4, 32 * 4, &rng);
  StreamingOptions options = SmallOptions();
  options.threshold = 0.0;

  auto always = StreamingNetworkBuilder::Create(4, options);
  ASSERT_TRUE(always.ok());
  CollectingSink always_sink;
  always->EmitTo(&always_sink);
  ASSERT_TRUE(always->AppendColumns(data, 0, data.length()).ok());
  ASSERT_GT(always_sink.indices.size(), 4u);

  auto late = StreamingNetworkBuilder::Create(4, options);
  ASSERT_TRUE(late.ok());
  ASSERT_TRUE(late->AppendColumns(data, 0, 64).ok());  // windows 0..4, unseen
  CollectingSink late_sink;
  late->EmitTo(&late_sink);
  ASSERT_TRUE(late->AppendColumns(data, 64, data.length() - 64).ok());

  ASSERT_FALSE(late_sink.indices.empty());
  EXPECT_EQ(late_sink.indices.front(), 5);
  const size_t skipped = always_sink.indices.size() - late_sink.indices.size();
  EXPECT_EQ(skipped, 5u);
  for (size_t k = 0; k < late_sink.indices.size(); ++k) {
    EXPECT_EQ(late_sink.indices[k], always_sink.indices[k + skipped]);
    EXPECT_EQ(late_sink.windows[k], always_sink.windows[k + skipped]);
  }
}

// A sink that cancels detaches: it keeps the window it cancelled on and
// receives nothing after it.
TEST(StreamingBuilderTest, CancellingSinkDetaches) {
  Rng rng(8);
  TimeSeriesMatrix data = GenerateWhiteNoise(3, 32 * 4, &rng);
  StreamingOptions options = SmallOptions();
  options.threshold = 0.0;

  auto builder = StreamingNetworkBuilder::Create(3, options);
  ASSERT_TRUE(builder.ok());
  CollectingSink sink;
  sink.accept = false;  // cancel at the first delivery
  builder->EmitTo(&sink);
  ASSERT_TRUE(builder->AppendColumns(data, 0, data.length()).ok());
  EXPECT_EQ(sink.indices, std::vector<int64_t>{0});
  EXPECT_FALSE(sink.windows[0].empty());
}

TEST(StreamingBuilderTest, PartialTailIsBuffered) {
  auto builder = StreamingNetworkBuilder::Create(2, SmallOptions());
  ASSERT_TRUE(builder.ok());
  CollectingSink sink;
  builder->EmitTo(&sink);
  Rng rng(11);
  std::vector<double> column(2);
  // 35 columns = 4 full basic windows + 3 buffered ticks.
  for (int64_t t = 0; t < 35; ++t) {
    column[0] = rng.NextGaussian();
    column[1] = rng.NextGaussian();
    ASSERT_TRUE(builder->Append(column).ok());
  }
  EXPECT_EQ(sink.indices, std::vector<int64_t>{0});  // only column 32's
}

TEST(StreamingBuilderTest, FamilyPublishThresholdValidatedAndResetOnDetach) {
  Rng rng(13);
  TimeSeriesMatrix data = GenerateWhiteNoise(3, 32 * 4, &rng);
  StreamingOptions options = SmallOptions();
  options.threshold = 0.73;  // the off-grid alert threshold

  auto builder = StreamingNetworkBuilder::Create(3, options);
  ASSERT_TRUE(builder.ok());
  WindowResultCache cache(int64_t{1} << 20);

  // Out-of-range publish thresholds are rejected without touching the sink.
  auto probe = StreamingNetworkBuilder::Create(3, options);
  ASSERT_TRUE(probe.ok());
  CollectingSink sink;
  probe->EmitTo(&sink);
  EXPECT_FALSE(probe->PublishTo(&cache, 1, 1.5).ok());
  ASSERT_TRUE(probe->AppendColumns(data, 0, 32).ok());
  EXPECT_EQ(sink.indices, std::vector<int64_t>{0});

  // Publish at the family grid value below the alert threshold: published
  // windows are evaluated at it (supersets of the alert edges).
  ASSERT_TRUE(builder->PublishTo(&cache, 1, 0.7).ok());
  ASSERT_TRUE(builder->AppendColumns(data, 0, data.length()).ok());
  const auto published = cache.Get(WindowKey::Make(1, 8, 4, 0, 0.7, false));
  ASSERT_NE(published, nullptr);
  for (const Edge& edge : *published) {
    EXPECT_GE(edge.value, 0.7);
  }

  // Detaching restores the builder's own threshold: a sink attached after
  // it continues the builder's numbering, and every edge it receives
  // clears the alert threshold 0.73 again.
  builder->PublishTo(nullptr, 1);
  CollectingSink after;
  builder->EmitTo(&after);
  ASSERT_TRUE(builder->AppendColumns(data, 0, data.length()).ok());
  ASSERT_FALSE(after.windows.empty());
  for (const std::vector<Edge>& window : after.windows) {
    for (const Edge& edge : window) {
      EXPECT_GE(edge.value, 0.73);
    }
  }
}

// Absolute-mode family publishing keys and evaluates |corr| >= grid.
TEST(StreamingBuilderTest, FamilyPublishAbsoluteMode) {
  Rng rng(14);
  TimeSeriesMatrix data = GenerateWhiteNoise(3, 32 * 4, &rng);
  StreamingOptions options = SmallOptions();
  options.threshold = 0.42;
  options.absolute = true;

  auto builder = StreamingNetworkBuilder::Create(3, options);
  ASSERT_TRUE(builder.ok());
  WindowResultCache cache(int64_t{1} << 20);
  EXPECT_FALSE(builder->PublishTo(&cache, 2, -0.1).ok());  // invalid when abs
  ASSERT_TRUE(builder->PublishTo(&cache, 2, 0.4).ok());
  ASSERT_TRUE(builder->AppendColumns(data, 0, data.length()).ok());
  const auto published = cache.Get(WindowKey::Make(2, 8, 4, 0, 0.4, true));
  ASSERT_NE(published, nullptr);
  for (const Edge& edge : *published) {
    EXPECT_TRUE(edge.value >= 0.4 || edge.value <= -0.4);
  }
}

}  // namespace
}  // namespace dangoron
