#ifndef DANGORON_SERVE_WINDOW_RESULT_CACHE_H_
#define DANGORON_SERVE_WINDOW_RESULT_CACHE_H_

#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

#include "engine/query.h"
#include "serve/lru_cache.h"

namespace dangoron {

/// Identity of one evaluated window: dataset content, sketch granularity,
/// window geometry in basic windows, and the thresholding rule. Window k of
/// a sliding query maps to start_bw = (query.start + k * step) / b with
/// window_bws = window / b; under exact (non-jumping) evaluation its
/// thresholded edge set depends on nothing else — not the query's range or
/// step — which is what makes cross-query reuse sound. The threshold is
/// keyed by bit pattern (exact-match semantics, no epsilon). A pair-range
/// restriction (sharding) is part of the identity: a restricted window's
/// edge set is a subset of the full one, so shard-local entries must never
/// satisfy full-range lookups or vice versa — (0, 0) is the unrestricted
/// key, matching SlidingQuery's encoding.
struct WindowKey {
  uint64_t fingerprint = 0;
  int64_t basic_window = 0;
  int64_t window_bws = 0;
  int64_t start_bw = 0;
  uint64_t threshold_bits = 0;
  bool absolute = false;
  int64_t pair_begin = 0;
  int64_t pair_end = 0;

  static WindowKey Make(uint64_t fingerprint, int64_t basic_window,
                        int64_t window_bws, int64_t start_bw, double threshold,
                        bool absolute, int64_t pair_begin = 0,
                        int64_t pair_end = 0) {
    return WindowKey{fingerprint, basic_window, window_bws, start_bw,
                     std::bit_cast<uint64_t>(threshold), absolute,
                     pair_begin, pair_end};
  }

  bool operator==(const WindowKey&) const = default;
};

struct WindowKeyHash {
  size_t operator()(const WindowKey& key) const {
    uint64_t h = MixHash(key.fingerprint);
    h = MixHash(h ^ static_cast<uint64_t>(key.basic_window));
    h = MixHash(h ^ static_cast<uint64_t>(key.window_bws));
    h = MixHash(h ^ static_cast<uint64_t>(key.start_bw));
    h = MixHash(h ^ key.threshold_bits);
    h = MixHash(h ^ static_cast<uint64_t>(key.pair_begin));
    h = MixHash(h ^ static_cast<uint64_t>(key.pair_end));
    return static_cast<size_t>(MixHash(h ^ (key.absolute ? 1u : 0u)));
  }
};

/// Cache key of window k of an *aligned* sliding query (start/window/step
/// multiples of `basic_window`) at `threshold` — callers pass the canonical
/// family threshold, not the query's raw one. The single geometry rule
/// behind every key the serving layer derives from a query (the window
/// plan's resolution loop and the kAuto cost probe must agree bit for bit,
/// or cache reuse silently breaks); CacheWindowSink encodes the same rule
/// for open-ended producers via FixedGeometry.
inline WindowKey QueryWindowKey(uint64_t fingerprint, int64_t basic_window,
                                const SlidingQuery& query, int64_t k,
                                double threshold) {
  return WindowKey::Make(fingerprint, basic_window,
                         query.window / basic_window,
                         (query.start + k * query.step) / basic_window,
                         threshold, query.absolute, query.pair_begin,
                         query.pair_end);
}

/// A window's thresholded edge set, shared immutably between the cache and
/// every query assembling a result from it. Sorted by (i, j).
using WindowEdges = std::shared_ptr<const std::vector<Edge>>;

/// Approximate retained bytes of one cached window entry (edges plus map /
/// list bookkeeping) — the unit the cache's byte budget counts.
inline int64_t WindowEdgesBytes(const std::vector<Edge>& edges) {
  return static_cast<int64_t>(edges.size() * sizeof(Edge)) + 128;
}

/// LRU cache of per-window edge sets under a byte budget: the reuse layer
/// that lets overlapping queries (same dataset / basic window / threshold,
/// overlapping ranges) and the streaming builder share evaluated windows
/// instead of re-walking pair tiles. Thread-safe; eviction drops the
/// cache's reference only, so queries holding a window keep it valid.
using WindowResultCache =
    LruByteCache<WindowKey, std::vector<Edge>, WindowKeyHash>;

}  // namespace dangoron

#endif  // DANGORON_SERVE_WINDOW_RESULT_CACHE_H_
