#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/rng.h"
#include "ts/csv.h"
#include "ts/resample.h"
#include "ts/time_series_matrix.h"

namespace dangoron {
namespace {

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("dangoron_ts_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string File(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

// ------------------------------------------------------ TimeSeriesMatrix --

TEST(TimeSeriesMatrixTest, ConstructionAndAccess) {
  TimeSeriesMatrix matrix(3, 5);
  EXPECT_EQ(matrix.num_series(), 3);
  EXPECT_EQ(matrix.length(), 5);
  EXPECT_FALSE(matrix.empty());
  matrix.Set(1, 2, 42.0);
  EXPECT_DOUBLE_EQ(matrix.Get(1, 2), 42.0);
  EXPECT_DOUBLE_EQ(matrix.Row(1)[2], 42.0);
  EXPECT_DOUBLE_EQ(matrix.Get(0, 0), 0.0);
}

TEST(TimeSeriesMatrixTest, FromRowsValidation) {
  EXPECT_FALSE(TimeSeriesMatrix::FromRows({}).ok());
  EXPECT_FALSE(TimeSeriesMatrix::FromRows({{}}).ok());
  EXPECT_FALSE(TimeSeriesMatrix::FromRows({{1.0, 2.0}, {1.0}}).ok());
  const auto ok = TimeSeriesMatrix::FromRows({{1.0, 2.0}, {3.0, 4.0}});
  ASSERT_TRUE(ok.ok());
  EXPECT_DOUBLE_EQ(ok->Get(1, 0), 3.0);
}

TEST(TimeSeriesMatrixTest, NamesDefaultAndCustom) {
  TimeSeriesMatrix matrix(2, 3);
  EXPECT_EQ(matrix.SeriesName(0), "series0");
  EXPECT_FALSE(matrix.SetSeriesNames({"only-one"}).ok());
  ASSERT_TRUE(matrix.SetSeriesNames({"alpha", "beta"}).ok());
  EXPECT_EQ(matrix.SeriesName(1), "beta");
}

TEST(TimeSeriesMatrixTest, MissingValues) {
  TimeSeriesMatrix matrix(1, 4);
  EXPECT_EQ(matrix.CountMissing(), 0);
  matrix.Set(0, 1, MissingValue());
  EXPECT_TRUE(IsMissing(matrix.Get(0, 1)));
  EXPECT_FALSE(IsMissing(matrix.Get(0, 0)));
  EXPECT_EQ(matrix.CountMissing(), 1);
}

// ------------------------------------------------------------------- CSV --

TEST(CsvTest, RowLayoutRoundTrip) {
  TempDir dir;
  TimeSeriesMatrix matrix(2, 4);
  for (int64_t t = 0; t < 4; ++t) {
    matrix.Set(0, t, static_cast<double>(t) + 0.5);
    matrix.Set(1, t, static_cast<double>(-t));
  }
  matrix.Set(1, 2, MissingValue());
  ASSERT_TRUE(matrix.SetSeriesNames({"north", "south"}).ok());
  const std::string path = dir.File("round.csv");
  ASSERT_TRUE(WriteCsv(matrix, path).ok());

  const auto loaded = LoadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_series(), 2);
  EXPECT_EQ(loaded->length(), 4);
  EXPECT_EQ(loaded->SeriesName(0), "north");
  EXPECT_DOUBLE_EQ(loaded->Get(0, 3), 3.5);
  EXPECT_TRUE(IsMissing(loaded->Get(1, 2)));
}

TEST(CsvTest, ColumnLayoutWithHeader) {
  TempDir dir;
  const std::string path = dir.File("columns.csv");
  {
    std::ofstream out(path);
    out << "s1,s2\n1.0,4.0\n2.0,5.0\n3.0,6.0\n";
  }
  CsvOptions options;
  options.has_header = true;
  options.series_in_rows = false;
  const auto loaded = LoadCsv(path, options);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_series(), 2);
  EXPECT_EQ(loaded->length(), 3);
  EXPECT_EQ(loaded->SeriesName(1), "s2");
  EXPECT_DOUBLE_EQ(loaded->Get(1, 2), 6.0);
}

TEST(CsvTest, Errors) {
  TempDir dir;
  EXPECT_FALSE(LoadCsv(dir.File("nonexistent.csv")).ok());

  const std::string ragged = dir.File("ragged.csv");
  {
    std::ofstream out(ragged);
    out << "1,2,3\n4,5\n";
  }
  EXPECT_FALSE(LoadCsv(ragged).ok());

  const std::string empty = dir.File("empty.csv");
  { std::ofstream out(empty); }
  EXPECT_FALSE(LoadCsv(empty).ok());
}

// -------------------------------------------------------------- Resample --

TEST(InterpolateTest, FillsInteriorGapsLinearly) {
  TimeSeriesMatrix matrix(1, 5);
  matrix.Set(0, 0, 0.0);
  matrix.Set(0, 1, MissingValue());
  matrix.Set(0, 2, MissingValue());
  matrix.Set(0, 3, 3.0);
  matrix.Set(0, 4, 4.0);
  ASSERT_TRUE(InterpolateMissing(&matrix).ok());
  EXPECT_DOUBLE_EQ(matrix.Get(0, 1), 1.0);
  EXPECT_DOUBLE_EQ(matrix.Get(0, 2), 2.0);
  EXPECT_EQ(matrix.CountMissing(), 0);
}

TEST(InterpolateTest, ExtendsEdges) {
  TimeSeriesMatrix matrix(1, 4);
  matrix.Set(0, 0, MissingValue());
  matrix.Set(0, 1, 5.0);
  matrix.Set(0, 2, 7.0);
  matrix.Set(0, 3, MissingValue());
  ASSERT_TRUE(InterpolateMissing(&matrix).ok());
  EXPECT_DOUBLE_EQ(matrix.Get(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(matrix.Get(0, 3), 7.0);
}

TEST(InterpolateTest, AllMissingSeriesIsError) {
  TimeSeriesMatrix matrix(1, 3);
  for (int64_t t = 0; t < 3; ++t) {
    matrix.Set(0, t, MissingValue());
  }
  EXPECT_FALSE(InterpolateMissing(&matrix).ok());
}

}  // namespace
}  // namespace dangoron
