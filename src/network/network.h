#ifndef DANGORON_NETWORK_NETWORK_H_
#define DANGORON_NETWORK_NETWORK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/status.h"
#include "engine/query.h"

namespace dangoron {

/// One correlation-network snapshot: the graph of a single thresholded
/// correlation matrix (nodes = series, edges = pairs >= beta).
class NetworkSnapshot {
 public:
  /// Builds a snapshot over `num_nodes` nodes from sorted engine edges.
  NetworkSnapshot(int64_t num_nodes, std::span<const Edge> edges);

  int64_t num_nodes() const { return num_nodes_; }
  int64_t num_edges() const { return static_cast<int64_t>(edges_.size()); }
  std::span<const Edge> edges() const { return edges_; }

  /// Neighbors of node `v`, ascending.
  std::span<const int32_t> Neighbors(int64_t v) const;

  /// Edge density: edges / (n choose 2).
  double Density() const;

  /// True if (i, j) is an edge (binary search over the adjacency list).
  bool HasEdge(int64_t i, int64_t j) const;

 private:
  int64_t num_nodes_ = 0;
  std::vector<Edge> edges_;
  /// CSR adjacency: neighbors_ concatenated per node, offsets_ has n + 1.
  std::vector<int32_t> neighbors_;
  std::vector<int64_t> offsets_;
};

/// Connected-component summary.
struct ComponentStats {
  int64_t num_components = 0;     ///< counting isolated nodes as components
  int64_t largest_component = 0;  ///< node count of the giant component
};
ComponentStats ComputeComponentStats(const NetworkSnapshot& network);

/// Global average of the local clustering coefficient (nodes with degree
/// < 2 contribute 0), computed exactly via adjacency intersection.
double AverageClusteringCoefficient(const NetworkSnapshot& network);

/// Edge dynamics between two consecutive snapshots — the "blinking links"
/// view of climate-network analysis.
struct EdgeDynamics {
  int64_t added = 0;     ///< edges present now but not before
  int64_t removed = 0;   ///< edges present before but not now
  int64_t persisted = 0; ///< edges present in both
  double jaccard = 1.0;  ///< persisted / union (1.0 for two empty graphs)
};
EdgeDynamics CompareSnapshots(const NetworkSnapshot& before,
                              const NetworkSnapshot& after);

/// Per-window network summary of a whole query result.
struct DynamicsSummary {
  std::vector<int64_t> edges_per_window;
  std::vector<double> density_per_window;
  std::vector<double> jaccard_per_step;  ///< size num_windows - 1
  double mean_jaccard = 1.0;
};
DynamicsSummary SummarizeDynamics(const CorrelationMatrixSeries& series);

}  // namespace dangoron

#endif  // DANGORON_NETWORK_NETWORK_H_
