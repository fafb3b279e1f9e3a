#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/rng.h"
#include "engine/naive_engine.h"
#include "network/export.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("dangoron_export_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(ExportTest, SeriesCsvLongFormat) {
  SlidingQuery query;
  query.start = 0;
  query.end = 20;
  query.window = 10;
  query.step = 10;
  CorrelationMatrixSeries series(query, 3);
  series.MutableWindow(0)->push_back(Edge{0, 2, 0.88});
  series.MutableWindow(1)->push_back(Edge{1, 2, 0.93});

  TempDir dir;
  const std::string path = dir.File("series.csv");
  ASSERT_TRUE(WriteSeriesCsv(series, path).ok());
  const std::string content = Slurp(path);
  EXPECT_NE(content.find("window,i,j,correlation"), std::string::npos);
  // %.17g: every value reads back as the double that was written.
  EXPECT_NE(content.find("\n0,0,2,0.88\n"), std::string::npos);
  EXPECT_NE(content.find("\n1,1,2,0.93000000000000005\n"), std::string::npos);
  EXPECT_EQ(std::strtod("0.93000000000000005", nullptr), 0.93);
}

TEST(ExportTest, UnwritablePathIsIoError) {
  SlidingQuery query;
  query.start = 0;
  query.end = 10;
  query.window = 10;
  query.step = 10;
  EXPECT_EQ(WriteSeriesCsv(CorrelationMatrixSeries(query, 2),
                           "/nonexistent_dir_xyz/out.csv")
                .code(),
            StatusCode::kIoError);
}

// A dataset and a query whose windows all carry edges (threshold 0 on
// white noise keeps about half the pairs).
TimeSeriesMatrix SampleData() {
  Rng rng(5);
  return GenerateWhiteNoise(4, 40, &rng);
}

SlidingQuery SampleQuery() {
  SlidingQuery query;
  query.start = 0;
  query.end = 40;
  query.window = 10;
  query.step = 10;
  query.threshold = 0.0;
  return query;
}

// The sink-driven export path writes the identical file the materialized
// WriteSeriesCsv writes — the same rows at window cadence, never holding
// the series.
TEST(ExportTest, SeriesCsvSinkMatchesMaterializedWriter) {
  const TimeSeriesMatrix data = SampleData();
  NaiveEngine engine;
  ASSERT_TRUE(engine.Prepare(data).ok());
  const auto series = engine.Query(SampleQuery());
  ASSERT_TRUE(series.ok());
  TempDir dir;
  const std::string materialized_path = dir.File("materialized.csv");
  ASSERT_TRUE(WriteSeriesCsv(*series, materialized_path).ok());

  const std::string streamed_path = dir.File("streamed.csv");
  SeriesCsvSink sink(streamed_path);
  ASSERT_TRUE(sink.status().ok());
  ASSERT_TRUE(engine.QueryToSink(SampleQuery(), &sink).ok());
  ASSERT_TRUE(sink.status().ok());

  EXPECT_EQ(Slurp(streamed_path), Slurp(materialized_path));
}

TEST(ExportTest, SeriesCsvSinkSurfacesOpenFailureAsRootCause) {
  SeriesCsvSink sink("/nonexistent_dir_xyz/out.csv");
  EXPECT_EQ(sink.status().code(), StatusCode::kIoError);
  // A bounded producer aborts at OnBegin with the IoError itself, not a
  // generic cancellation.
  const TimeSeriesMatrix data = SampleData();
  NaiveEngine engine;
  ASSERT_TRUE(engine.Prepare(data).ok());
  EXPECT_EQ(engine.QueryToSink(SampleQuery(), &sink).code(),
            StatusCode::kIoError);
  EXPECT_EQ(sink.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace dangoron
