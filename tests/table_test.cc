#include <gtest/gtest.h>

#include "eval/table.h"
#include "eval/workloads.h"
#include "engine/naive_engine.h"

namespace dangoron {
namespace {

TEST(TableTest, AlignsColumns) {
  Table table({"engine", "time", "speedup"});
  table.AddRow().Add("naive").AddTime(1.5).AddRatio(1.0);
  table.AddRow().Add("dangoron").AddTime(0.012).AddRatio(125.0);
  const std::string text = table.ToString();
  // Header present and underlined.
  EXPECT_NE(text.find("engine"), std::string::npos);
  EXPECT_NE(text.find("-----"), std::string::npos);
  EXPECT_NE(text.find("1.50 s"), std::string::npos);
  EXPECT_NE(text.find("12.00 ms"), std::string::npos);
  EXPECT_NE(text.find("125.0x"), std::string::npos);
  // Every line has the same leading column width: "dangoron" is longest.
  EXPECT_NE(text.find("naive   "), std::string::npos);
}

TEST(TableTest, FormatsNumbers) {
  Table table({"a", "b", "c", "d"});
  table.AddRow().AddInt(1234567).AddDouble(3.14159, 2).AddPercent(0.931)
      .AddTime(5e-6);
  const std::string text = table.ToString();
  EXPECT_NE(text.find("1,234,567"), std::string::npos);
  EXPECT_NE(text.find("3.14"), std::string::npos);
  EXPECT_NE(text.find("93.1%"), std::string::npos);
  EXPECT_NE(text.find("5.0 us"), std::string::npos);
}

TEST(WorkloadTest, ClimateWorkloadGeneratesAndRuns) {
  ClimateWorkload workload;
  workload.num_stations = 6;
  workload.num_hours = 24 * 20;
  const auto data = workload.Generate();
  ASSERT_TRUE(data.ok());
  EXPECT_EQ(data->num_series(), 6);

  SlidingQuery query = workload.DefaultQuery(0.7);
  query.window = 24 * 5;  // shrink for the tiny test data
  NaiveEngine engine;
  const auto run = RunEngineTimed(&engine, *data, query, 1);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->query_seconds, 0.0);
  EXPECT_EQ(run->result.num_windows(), query.NumWindows());
  EXPECT_EQ(run->stats.cells_total,
            query.NumWindows() * 6 * 5 / 2);
}

TEST(WorkloadTest, TimedRunsKeepMinimum) {
  ClimateWorkload workload;
  workload.num_stations = 4;
  workload.num_hours = 24 * 10;
  const auto data = workload.Generate();
  ASSERT_TRUE(data.ok());
  SlidingQuery query = workload.DefaultQuery(0.7);
  query.window = 24 * 2;
  NaiveEngine engine;
  const auto run = RunEngineTimed(&engine, *data, query, 3);
  ASSERT_TRUE(run.ok());
  EXPECT_GT(run->query_seconds, 0.0);
}

}  // namespace
}  // namespace dangoron
