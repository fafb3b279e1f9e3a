#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "network/export.h"

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

NetworkSnapshot SampleNetwork() {
  const std::vector<Edge> edges = {{0, 1, 0.91}, {1, 2, -0.85}};
  return NetworkSnapshot(4, edges);
}

TEST(ExportTest, EdgeListWithNames) {
  TempDir dir;
  const std::string path = dir.File("edges.tsv");
  ASSERT_TRUE(
      WriteEdgeList(SampleNetwork(), {"a", "b", "c", "d"}, path).ok());
  const std::string content = Slurp(path);
  EXPECT_NE(content.find("a\tb\t0.910000"), std::string::npos);
  EXPECT_NE(content.find("b\tc\t-0.850000"), std::string::npos);
}

TEST(ExportTest, EdgeListNumericFallback) {
  TempDir dir;
  const std::string path = dir.File("edges_numeric.tsv");
  ASSERT_TRUE(WriteEdgeList(SampleNetwork(), {}, path).ok());
  const std::string content = Slurp(path);
  EXPECT_NE(content.find("0\t1\t0.910000"), std::string::npos);
}

TEST(ExportTest, GraphvizStructure) {
  TempDir dir;
  const std::string path = dir.File("net.dot");
  ASSERT_TRUE(
      WriteGraphviz(SampleNetwork(), {"a", "b", "c", "d"}, path).ok());
  const std::string content = Slurp(path);
  EXPECT_NE(content.find("graph correlation_network {"), std::string::npos);
  EXPECT_NE(content.find("\"a\" -- \"b\""), std::string::npos);
  // Isolated node d is still declared.
  EXPECT_NE(content.find("\"d\";"), std::string::npos);
  EXPECT_NE(content.find("}"), std::string::npos);
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
  const std::string bad = "/nonexistent_dir_xyz/out.tsv";
  EXPECT_EQ(WriteEdgeList(SampleNetwork(), {}, bad).code(),
            StatusCode::kIoError);
  EXPECT_EQ(WriteGraphviz(SampleNetwork(), {}, bad).code(),
            StatusCode::kIoError);
}

CorrelationMatrixSeries SampleSeries() {
  SlidingQuery query;
  query.start = 0;
  query.end = 30;
  query.window = 10;
  query.step = 10;
  CorrelationMatrixSeries series(query, 3);
  series.MutableWindow(0)->push_back(Edge{0, 2, 0.88});
  series.MutableWindow(1)->push_back(Edge{1, 2, 0.93});
  series.MutableWindow(2)->push_back(Edge{0, 1, -0.91});
  return series;
}

// The sink-driven export path writes the identical file the materialized
// WriteSeriesCsv writes — the same rows at window cadence, never holding
// the series.
TEST(ExportTest, SeriesCsvSinkMatchesMaterializedWriter) {
  const CorrelationMatrixSeries series = SampleSeries();
  TempDir dir;
  const std::string materialized_path = dir.File("materialized.csv");
  ASSERT_TRUE(WriteSeriesCsv(series, materialized_path).ok());

  const std::string streamed_path = dir.File("streamed.csv");
  SeriesCsvSink sink(streamed_path);
  ASSERT_TRUE(sink.status().ok());
  ASSERT_TRUE(ReplayToSink(series, &sink).ok());
  ASSERT_TRUE(sink.status().ok());

  EXPECT_EQ(Slurp(streamed_path), Slurp(materialized_path));
}

TEST(ExportTest, SeriesCsvSinkSurfacesOpenFailureAsRootCause) {
  SeriesCsvSink sink("/nonexistent_dir_xyz/out.csv");
  EXPECT_EQ(sink.status().code(), StatusCode::kIoError);
  // A bounded producer aborts at OnBegin with the IoError itself, not a
  // generic cancellation.
  EXPECT_EQ(ReplayToSink(SampleSeries(), &sink).code(),
            StatusCode::kIoError);
  EXPECT_EQ(sink.status().code(), StatusCode::kIoError);
}

}  // namespace
}  // namespace dangoron
