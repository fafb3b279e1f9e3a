#ifndef DANGORON_ENGINE_QUERY_H_
#define DANGORON_ENGINE_QUERY_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace dangoron {

/// The sliding-window correlation query of the paper's problem definition:
/// over columns [start, end), compute a correlation matrix per window of
/// size `window`, advancing by `step`, reporting entries >= `threshold`
/// (everything below is 0 — i.e. absent from the sparse result).
struct SlidingQuery {
  int64_t start = 0;      ///< s — first column of the query range
  int64_t end = 0;        ///< e — one past the last column
  int64_t window = 0;     ///< l — query window size (columns)
  int64_t step = 0;       ///< eta — sliding step (columns)
  double threshold = 0.8; ///< beta — minimum reported correlation
  /// When true, an edge is reported when |corr| >= beta (anti-correlations
  /// count — the convention of climate teleconnection networks); the edge
  /// keeps the signed value. beta must then be in [0, 1].
  bool absolute = false;
  /// Restricts evaluation to pair ids in [pair_begin, pair_end) — the
  /// contiguous slice of the canonical pair enumeration (ascending (i, j),
  /// see BasicWindowIndex::PairId). (0, 0) means all pairs. This is the
  /// sharding primitive: a router splits one query into K disjoint
  /// pair-range restrictions and concatenates the per-window edge lists in
  /// shard order, which is exactly the global (i, j) sort. pair_end beyond
  /// the dataset's pair count is clamped, so a splitter may over-shoot the
  /// last slice.
  int64_t pair_begin = 0;
  int64_t pair_end = 0;

  /// True when the query restricts the pair-id range.
  bool HasPairRestriction() const {
    return pair_begin != 0 || pair_end != 0;
  }

  /// The evaluated pair-id range for a dataset with `num_pairs` total pairs:
  /// the whole range when unrestricted, the clamped restriction otherwise.
  std::pair<int64_t, int64_t> PairRange(int64_t num_pairs) const {
    if (!HasPairRestriction()) {
      return {0, num_pairs};
    }
    const int64_t lo = std::min(pair_begin, num_pairs);
    const int64_t hi = std::min(pair_end, num_pairs);
    return {lo, std::max(lo, hi)};
  }

  /// True when `value` clears the edge threshold under this query's rule.
  bool IsEdge(double value) const {
    return (absolute ? (value <= -threshold || value >= threshold)
                     : value >= threshold);
  }

  /// Number of windows (gamma + 1); 0 when the range cannot fit one window.
  int64_t NumWindows() const {
    if (end - start < window || window <= 0 || step <= 0) {
      return 0;
    }
    return (end - start - window) / step + 1;
  }

  /// Validates basic well-formedness against a series length.
  Status Validate(int64_t series_length) const;

  std::string ToString() const;
};

/// One reported entry of a thresholded correlation matrix: an edge of the
/// correlation network snapshot.
struct Edge {
  int32_t i = 0;
  int32_t j = 0;      ///< i < j (matrices are symmetric; diagonal implied)
  double value = 0.0; ///< Pearson correlation, >= query threshold
};

inline bool operator==(const Edge& a, const Edge& b) {
  return a.i == b.i && a.j == b.j && a.value == b.value;
}

/// The canonical (i, j) ordering of a window's edges: the order of the
/// WindowSink "sorted by (i, j)" contract, for consumers that sort, check
/// or merge windows.
inline bool EdgeOrder(const Edge& a, const Edge& b) {
  return a.i != b.i ? a.i < b.i : a.j < b.j;
}

/// The query result: a sequence of sparse thresholded correlation matrices,
/// window k covering columns [start + k*step, start + k*step + window).
/// Edges within a window are sorted by (i, j).
class CorrelationMatrixSeries {
 public:
  CorrelationMatrixSeries() = default;
  CorrelationMatrixSeries(SlidingQuery query, int64_t num_series)
      : query_(query), num_series_(num_series),
        windows_(static_cast<size_t>(query.NumWindows())) {}

  const SlidingQuery& query() const { return query_; }
  int64_t num_series() const { return num_series_; }
  int64_t num_windows() const { return static_cast<int64_t>(windows_.size()); }

  std::span<const Edge> WindowEdges(int64_t k) const {
    return windows_[static_cast<size_t>(k)];
  }
  std::vector<Edge>* MutableWindow(int64_t k) {
    return &windows_[static_cast<size_t>(k)];
  }

  /// Total edges across all windows.
  int64_t TotalEdges() const;

 private:
  SlidingQuery query_;
  int64_t num_series_ = 0;
  std::vector<std::vector<Edge>> windows_;
};

/// Counters every engine fills during a query; the benchmark harness prints
/// them next to the timings.
struct EngineStats {
  int64_t num_windows = 0;
  int64_t num_pairs = 0;
  /// pair-window cells in the full problem (num_windows * num_pairs).
  int64_t cells_total = 0;
  /// cells whose correlation was explicitly evaluated.
  int64_t cells_evaluated = 0;
  /// cells skipped by temporal jumps.
  int64_t cells_jumped = 0;
  /// number of jump decisions taken.
  int64_t jumps = 0;

  void Reset() { *this = EngineStats(); }
};

}  // namespace dangoron

#endif  // DANGORON_ENGINE_QUERY_H_
