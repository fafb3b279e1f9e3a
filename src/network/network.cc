#include "network/network.h"

#include <algorithm>

#include "common/logging.h"
#include "network/union_find.h"

namespace dangoron {

NetworkSnapshot::NetworkSnapshot(int64_t num_nodes,
                                 std::span<const Edge> edges)
    : num_nodes_(num_nodes), edges_(edges.begin(), edges.end()) {
  CHECK_GE(num_nodes, 0);
  // Degree counting pass, then CSR fill (both directions of each edge).
  offsets_.assign(static_cast<size_t>(num_nodes + 1), 0);
  for (const Edge& edge : edges_) {
    DCHECK_LT(edge.i, edge.j);
    DCHECK_LT(edge.j, num_nodes);
    ++offsets_[static_cast<size_t>(edge.i) + 1];
    ++offsets_[static_cast<size_t>(edge.j) + 1];
  }
  for (int64_t v = 0; v < num_nodes; ++v) {
    offsets_[static_cast<size_t>(v) + 1] += offsets_[static_cast<size_t>(v)];
  }
  neighbors_.resize(static_cast<size_t>(offsets_[static_cast<size_t>(num_nodes)]));
  std::vector<int64_t> cursor(offsets_.begin(), offsets_.end() - 1);
  for (const Edge& edge : edges_) {
    neighbors_[static_cast<size_t>(cursor[static_cast<size_t>(edge.i)]++)] =
        edge.j;
    neighbors_[static_cast<size_t>(cursor[static_cast<size_t>(edge.j)]++)] =
        edge.i;
  }
  for (int64_t v = 0; v < num_nodes; ++v) {
    std::sort(neighbors_.begin() + offsets_[static_cast<size_t>(v)],
              neighbors_.begin() + offsets_[static_cast<size_t>(v) + 1]);
  }
}

std::span<const int32_t> NetworkSnapshot::Neighbors(int64_t v) const {
  DCHECK_GE(v, 0);
  DCHECK_LT(v, num_nodes_);
  const int64_t begin = offsets_[static_cast<size_t>(v)];
  const int64_t end = offsets_[static_cast<size_t>(v) + 1];
  return std::span<const int32_t>(neighbors_.data() + begin,
                                  static_cast<size_t>(end - begin));
}

double NetworkSnapshot::Density() const {
  if (num_nodes_ < 2) {
    return 0.0;
  }
  const double possible =
      static_cast<double>(num_nodes_) * static_cast<double>(num_nodes_ - 1) /
      2.0;
  return static_cast<double>(num_edges()) / possible;
}

bool NetworkSnapshot::HasEdge(int64_t i, int64_t j) const {
  if (i == j) {
    return false;
  }
  std::span<const int32_t> neighbors = Neighbors(i);
  return std::binary_search(neighbors.begin(), neighbors.end(),
                            static_cast<int32_t>(j));
}

ComponentStats ComputeComponentStats(const NetworkSnapshot& network) {
  ComponentStats stats;
  const int64_t n = network.num_nodes();
  if (n == 0) {
    return stats;
  }
  UnionFind forest(n);
  int64_t merges = 0;
  for (const Edge& edge : network.edges()) {
    if (forest.Union(edge.i, edge.j)) {
      ++merges;
    }
  }
  stats.num_components = n - merges;
  for (int64_t v = 0; v < n; ++v) {
    stats.largest_component =
        std::max(stats.largest_component, forest.ComponentSize(v));
  }
  return stats;
}

double AverageClusteringCoefficient(const NetworkSnapshot& network) {
  const int64_t n = network.num_nodes();
  if (n == 0) {
    return 0.0;
  }
  double total = 0.0;
  for (int64_t v = 0; v < n; ++v) {
    std::span<const int32_t> neighbors = network.Neighbors(v);
    const int64_t degree = static_cast<int64_t>(neighbors.size());
    if (degree < 2) {
      continue;
    }
    int64_t closed = 0;
    for (size_t a = 0; a < neighbors.size(); ++a) {
      for (size_t b = a + 1; b < neighbors.size(); ++b) {
        if (network.HasEdge(neighbors[a], neighbors[b])) {
          ++closed;
        }
      }
    }
    total += 2.0 * static_cast<double>(closed) /
             (static_cast<double>(degree) * static_cast<double>(degree - 1));
  }
  return total / static_cast<double>(n);
}

EdgeDynamics CompareSnapshots(const NetworkSnapshot& before,
                              const NetworkSnapshot& after) {
  EdgeDynamics dynamics;
  // Both edge lists are sorted by (i, j): a linear merge.
  std::span<const Edge> a = before.edges();
  std::span<const Edge> b = after.edges();
  size_t x = 0;
  size_t y = 0;
  auto less = [](const Edge& p, const Edge& q) {
    return p.i != q.i ? p.i < q.i : p.j < q.j;
  };
  while (x < a.size() && y < b.size()) {
    if (less(a[x], b[y])) {
      ++dynamics.removed;
      ++x;
    } else if (less(b[y], a[x])) {
      ++dynamics.added;
      ++y;
    } else {
      ++dynamics.persisted;
      ++x;
      ++y;
    }
  }
  dynamics.removed += static_cast<int64_t>(a.size() - x);
  dynamics.added += static_cast<int64_t>(b.size() - y);
  const int64_t total =
      dynamics.added + dynamics.removed + dynamics.persisted;
  dynamics.jaccard =
      total == 0 ? 1.0
                 : static_cast<double>(dynamics.persisted) /
                       static_cast<double>(total);
  return dynamics;
}

DynamicsSummary SummarizeDynamics(const CorrelationMatrixSeries& series) {
  DynamicsSummary summary;
  const int64_t windows = series.num_windows();
  summary.edges_per_window.reserve(static_cast<size_t>(windows));
  summary.density_per_window.reserve(static_cast<size_t>(windows));

  std::optional<NetworkSnapshot> previous;
  double jaccard_sum = 0.0;
  for (int64_t k = 0; k < windows; ++k) {
    NetworkSnapshot current(series.num_series(), series.WindowEdges(k));
    summary.edges_per_window.push_back(current.num_edges());
    summary.density_per_window.push_back(current.Density());
    if (previous.has_value()) {
      const EdgeDynamics dynamics = CompareSnapshots(*previous, current);
      summary.jaccard_per_step.push_back(dynamics.jaccard);
      jaccard_sum += dynamics.jaccard;
    }
    previous.emplace(std::move(current));
  }
  summary.mean_jaccard =
      summary.jaccard_per_step.empty()
          ? 1.0
          : jaccard_sum /
                static_cast<double>(summary.jaccard_per_step.size());
  return summary;
}

}  // namespace dangoron
