#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "network/accuracy.h"
#include "network/network.h"
#include "network/union_find.h"

namespace dangoron {
namespace {

// ------------------------------------------------------------ Union-find --

TEST(UnionFindTest, BasicMerges) {
  UnionFind forest(5);
  EXPECT_NE(forest.Find(0), forest.Find(1));
  EXPECT_TRUE(forest.Union(0, 1));
  EXPECT_EQ(forest.Find(0), forest.Find(1));
  EXPECT_FALSE(forest.Union(0, 1));  // already merged
  EXPECT_TRUE(forest.Union(1, 2));
  EXPECT_EQ(forest.Find(0), forest.Find(2));
  EXPECT_EQ(forest.ComponentSize(0), 3);
  EXPECT_EQ(forest.ComponentSize(4), 1);
}

TEST(UnionFindTest, ChainsCollapse) {
  UnionFind forest(100);
  for (int64_t i = 0; i + 1 < 100; ++i) {
    forest.Union(i, i + 1);
  }
  EXPECT_EQ(forest.Find(0), forest.Find(99));
  EXPECT_EQ(forest.ComponentSize(50), 100);
}

// -------------------------------------------------------------- Snapshot --

std::vector<Edge> TriangleAndIsland() {
  // Triangle 0-1-2 plus edge 3-4, node 5 isolated.
  return {{0, 1, 0.9}, {0, 2, 0.85}, {1, 2, 0.8}, {3, 4, 0.95}};
}

TEST(SnapshotTest, AdjacencyAndDegree) {
  const std::vector<Edge> edges = TriangleAndIsland();
  const NetworkSnapshot network(6, edges);
  EXPECT_EQ(network.num_nodes(), 6);
  EXPECT_EQ(network.num_edges(), 4);
  EXPECT_EQ(network.Neighbors(0).size(), 2u);
  EXPECT_EQ(network.Neighbors(3).size(), 1u);
  EXPECT_TRUE(network.Neighbors(5).empty());
  EXPECT_TRUE(network.HasEdge(0, 1));
  EXPECT_TRUE(network.HasEdge(1, 0));
  EXPECT_FALSE(network.HasEdge(0, 3));
  EXPECT_FALSE(network.HasEdge(2, 2));
  const auto neighbors = network.Neighbors(1);
  ASSERT_EQ(neighbors.size(), 2u);
  EXPECT_EQ(neighbors[0], 0);
  EXPECT_EQ(neighbors[1], 2);
}

TEST(SnapshotTest, Density) {
  const NetworkSnapshot network(6, TriangleAndIsland());
  EXPECT_DOUBLE_EQ(network.Density(), 4.0 / 15.0);
  const NetworkSnapshot empty(1, {});
  EXPECT_DOUBLE_EQ(empty.Density(), 0.0);
}

TEST(SnapshotTest, Components) {
  const ComponentStats stats =
      ComputeComponentStats(NetworkSnapshot(6, TriangleAndIsland()));
  EXPECT_EQ(stats.num_components, 3);  // triangle, pair, isolated node
  EXPECT_EQ(stats.largest_component, 3);
}

TEST(SnapshotTest, ClusteringCoefficient) {
  // Triangle: each member has coefficient 1; node 3 and 4 have degree 1 ->
  // 0; node 5 isolated -> 0. Average = 3/6.
  EXPECT_NEAR(
      AverageClusteringCoefficient(NetworkSnapshot(6, TriangleAndIsland())),
      0.5, 1e-12);
  // A star has zero clustering.
  const std::vector<Edge> star = {{0, 1, 1}, {0, 2, 1}, {0, 3, 1}};
  EXPECT_DOUBLE_EQ(AverageClusteringCoefficient(NetworkSnapshot(4, star)),
                   0.0);
}

// -------------------------------------------------------------- Dynamics --

TEST(DynamicsTest, CompareSnapshots) {
  const std::vector<Edge> before = {{0, 1, 0.9}, {1, 2, 0.8}, {2, 3, 0.7}};
  const std::vector<Edge> after = {{0, 1, 0.92}, {2, 3, 0.71}, {3, 4, 0.85}};
  const EdgeDynamics dynamics = CompareSnapshots(
      NetworkSnapshot(5, before), NetworkSnapshot(5, after));
  EXPECT_EQ(dynamics.persisted, 2);
  EXPECT_EQ(dynamics.removed, 1);
  EXPECT_EQ(dynamics.added, 1);
  EXPECT_NEAR(dynamics.jaccard, 0.5, 1e-12);
}

TEST(DynamicsTest, EmptyGraphsHaveJaccardOne) {
  const EdgeDynamics dynamics =
      CompareSnapshots(NetworkSnapshot(3, {}), NetworkSnapshot(3, {}));
  EXPECT_DOUBLE_EQ(dynamics.jaccard, 1.0);
  EXPECT_EQ(dynamics.added + dynamics.removed + dynamics.persisted, 0);
}

TEST(DynamicsTest, SummarizeSeries) {
  SlidingQuery query;
  query.start = 0;
  query.end = 30;
  query.window = 10;
  query.step = 10;
  CorrelationMatrixSeries series(query, 4);
  series.MutableWindow(0)->push_back(Edge{0, 1, 0.9});
  series.MutableWindow(1)->push_back(Edge{0, 1, 0.9});
  series.MutableWindow(1)->push_back(Edge{2, 3, 0.8});
  // window 2 empty.
  const DynamicsSummary summary = SummarizeDynamics(series);
  ASSERT_EQ(summary.edges_per_window.size(), 3u);
  EXPECT_EQ(summary.edges_per_window[0], 1);
  EXPECT_EQ(summary.edges_per_window[1], 2);
  EXPECT_EQ(summary.edges_per_window[2], 0);
  ASSERT_EQ(summary.jaccard_per_step.size(), 2u);
  EXPECT_NEAR(summary.jaccard_per_step[0], 0.5, 1e-12);
  EXPECT_NEAR(summary.jaccard_per_step[1], 0.0, 1e-12);
}

// -------------------------------------------------------------- Accuracy --

TEST(AccuracyTest, PerfectMatch) {
  const std::vector<Edge> edges = {{0, 1, 0.9}, {1, 2, 0.8}};
  const EdgeAccuracy accuracy = CompareWindowEdges(edges, edges);
  EXPECT_EQ(accuracy.true_positives, 2);
  EXPECT_EQ(accuracy.false_positives, 0);
  EXPECT_EQ(accuracy.false_negatives, 0);
  EXPECT_DOUBLE_EQ(accuracy.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(accuracy.Recall(), 1.0);
  EXPECT_DOUBLE_EQ(accuracy.F1(), 1.0);
  EXPECT_DOUBLE_EQ(accuracy.value_rmse, 0.0);
}

TEST(AccuracyTest, MissesAndExtras) {
  const std::vector<Edge> truth = {{0, 1, 0.9}, {1, 2, 0.8}, {2, 3, 0.85}};
  const std::vector<Edge> test = {{0, 1, 0.9}, {3, 4, 0.7}};
  const EdgeAccuracy accuracy = CompareWindowEdges(truth, test);
  EXPECT_EQ(accuracy.true_positives, 1);
  EXPECT_EQ(accuracy.false_positives, 1);
  EXPECT_EQ(accuracy.false_negatives, 2);
  EXPECT_DOUBLE_EQ(accuracy.Precision(), 0.5);
  EXPECT_NEAR(accuracy.Recall(), 1.0 / 3.0, 1e-12);
}

TEST(AccuracyTest, ValueRmseOnMatches) {
  const std::vector<Edge> truth = {{0, 1, 0.9}, {1, 2, 0.8}};
  const std::vector<Edge> test = {{0, 1, 0.8}, {1, 2, 0.8}};
  const EdgeAccuracy accuracy = CompareWindowEdges(truth, test);
  EXPECT_NEAR(accuracy.value_rmse, std::sqrt(0.01 / 2.0), 1e-12);
}

TEST(AccuracyTest, EmptyBothIsPerfect) {
  const EdgeAccuracy accuracy = CompareWindowEdges({}, {});
  EXPECT_DOUBLE_EQ(accuracy.Precision(), 1.0);
  EXPECT_DOUBLE_EQ(accuracy.Recall(), 1.0);
}

TEST(AccuracyTest, CompareSeriesAggregates) {
  SlidingQuery query;
  query.start = 0;
  query.end = 20;
  query.window = 10;
  query.step = 10;
  CorrelationMatrixSeries truth(query, 4);
  CorrelationMatrixSeries test(query, 4);
  truth.MutableWindow(0)->push_back(Edge{0, 1, 0.9});
  test.MutableWindow(0)->push_back(Edge{0, 1, 0.9});
  truth.MutableWindow(1)->push_back(Edge{1, 2, 0.85});
  // test misses the window-1 edge.
  const auto accuracy = CompareSeries(truth, test);
  ASSERT_TRUE(accuracy.ok());
  EXPECT_EQ(accuracy->total.true_positives, 1);
  EXPECT_EQ(accuracy->total.false_negatives, 1);
  EXPECT_EQ(accuracy->windows_compared, 2);
  EXPECT_NEAR(accuracy->mean_f1, 0.5, 1e-12);
}

TEST(AccuracyTest, MismatchedWindowCountsRejected) {
  SlidingQuery query_a;
  query_a.start = 0;
  query_a.end = 20;
  query_a.window = 10;
  query_a.step = 10;
  SlidingQuery query_b = query_a;
  query_b.end = 30;
  CorrelationMatrixSeries a(query_a, 3);
  CorrelationMatrixSeries b(query_b, 3);
  EXPECT_FALSE(CompareSeries(a, b).ok());
}

}  // namespace
}  // namespace dangoron
