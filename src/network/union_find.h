#ifndef DANGORON_NETWORK_UNION_FIND_H_
#define DANGORON_NETWORK_UNION_FIND_H_

#include <cstdint>
#include <numeric>
#include <vector>

namespace dangoron {

/// Disjoint-set forest with union by size and path halving; used for
/// connected-component analysis of network snapshots.
class UnionFind {
 public:
  explicit UnionFind(int64_t n)
      : parent_(static_cast<size_t>(n)), size_(static_cast<size_t>(n), 1) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }

  int64_t Find(int64_t x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }

  /// Merges the sets of a and b; returns true if they were distinct.
  bool Union(int64_t a, int64_t b) {
    int64_t ra = Find(a);
    int64_t rb = Find(b);
    if (ra == rb) {
      return false;
    }
    if (size_[static_cast<size_t>(ra)] < size_[static_cast<size_t>(rb)]) {
      std::swap(ra, rb);
    }
    parent_[static_cast<size_t>(rb)] = ra;
    size_[static_cast<size_t>(ra)] += size_[static_cast<size_t>(rb)];
    return true;
  }

  /// Size of the set containing x.
  int64_t ComponentSize(int64_t x) {
    return size_[static_cast<size_t>(Find(x))];
  }

 private:
  std::vector<int64_t> parent_;
  std::vector<int64_t> size_;
};

}  // namespace dangoron

#endif  // DANGORON_NETWORK_UNION_FIND_H_
