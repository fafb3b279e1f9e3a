#ifndef DANGORON_SERVE_CACHE_SINK_H_
#define DANGORON_SERVE_CACHE_SINK_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "engine/window_sink.h"
#include "serve/window_result_cache.h"

namespace dangoron {

/// A WindowSink that publishes every emitted window into a
/// `WindowResultCache` — the one adapter behind both producers that warm a
/// server's window cache from outside a query:
///
/// - engine-driven (bounded) producers: `OnBegin` derives the window
///   geometry from the query, so `QueryToSink` warms the cache directly;
/// - open-ended producers (`StreamingNetworkBuilder::EmitTo`): no `OnBegin`
///   arrives, so construct with `FixedGeometry` and windows are keyed from
///   the stream's configuration.
///
/// Every published window must contain exactly the edges clearing
/// `threshold` under `absolute` — the key is a promise about the edge set's
/// completeness (see WindowKey). Edges are moved into one shared allocation:
/// no copy, no double-buffering. The cache must outlive the sink.
class CacheWindowSink final : public WindowSink {
 public:
  /// Geometry for open-ended producers: window k is keyed at
  /// start_bw = start0_bw + k * step_bws.
  struct FixedGeometry {
    int64_t window_bws = 0;
    int64_t step_bws = 0;
    int64_t start0_bw = 0;
    double threshold = 0.0;
    bool absolute = false;
    int64_t pair_begin = 0;  ///< pair-range restriction; (0, 0) = all pairs
    int64_t pair_end = 0;
  };

  /// Engine-driven form: geometry arrives via OnBegin. The driving query's
  /// start/window/step must be multiples of `basic_window`.
  CacheWindowSink(WindowResultCache* cache, uint64_t fingerprint,
                  int64_t basic_window)
      : cache_(cache), fingerprint_(fingerprint), basic_window_(basic_window) {}

  /// Open-ended form: fixed geometry, no OnBegin needed.
  CacheWindowSink(WindowResultCache* cache, uint64_t fingerprint,
                  int64_t basic_window, const FixedGeometry& geometry)
      : cache_(cache),
        fingerprint_(fingerprint),
        basic_window_(basic_window),
        geometry_(geometry) {}

  Status OnBegin(const SlidingQuery& query, int64_t num_series) override {
    (void)num_series;
    const int64_t b = basic_window_;
    if (query.start % b != 0 || query.window % b != 0 || query.step % b != 0) {
      return Status::InvalidArgument(
          "CacheWindowSink: query start/window/step must be multiples of the "
          "basic window ",
          b);
    }
    geometry_.window_bws = query.window / b;
    geometry_.step_bws = query.step / b;
    geometry_.start0_bw = query.start / b;
    geometry_.threshold = query.threshold;
    geometry_.absolute = query.absolute;
    geometry_.pair_begin = query.pair_begin;
    geometry_.pair_end = query.pair_end;
    return Status::Ok();
  }

  bool OnWindow(int64_t window_index, std::vector<Edge> edges) override {
    auto shared = std::make_shared<std::vector<Edge>>(std::move(edges));
    const int64_t bytes = WindowEdgesBytes(*shared);
    cache_->Put(
        WindowKey::Make(fingerprint_, basic_window_, geometry_.window_bws,
                        geometry_.start0_bw + window_index * geometry_.step_bws,
                        geometry_.threshold, geometry_.absolute,
                        geometry_.pair_begin, geometry_.pair_end),
        std::move(shared), bytes);
    return true;
  }

 private:
  WindowResultCache* cache_;
  uint64_t fingerprint_;
  int64_t basic_window_;
  FixedGeometry geometry_;
};

}  // namespace dangoron

#endif  // DANGORON_SERVE_CACHE_SINK_H_
