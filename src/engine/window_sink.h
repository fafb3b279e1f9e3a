#ifndef DANGORON_ENGINE_WINDOW_SINK_H_
#define DANGORON_ENGINE_WINDOW_SINK_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "engine/query.h"

namespace dangoron {

/// The window-emission side of the result pipeline: engines (and other
/// window producers) push each window's thresholded edge set into a sink as
/// soon as it is final, instead of materializing a whole
/// `CorrelationMatrixSeries` before the caller sees a single edge.
///
/// Contract for bounded producers (the engines' `QueryToSink` /
/// `QueryPreparedToSink` paths):
/// - `OnBegin` is called exactly once, after query validation and before any
///   window; a non-OK return aborts the query with that status (no
///   `OnFinish`).
/// - `OnWindow` is called for window indices 0 .. NumWindows()-1 in strictly
///   ascending order, exactly once each, with edges sorted by (i, j) and
///   thresholded by the query's rule. Returning false is the cancellation
///   hook: the producer stops, calls `OnFinish(Cancelled)`, and returns the
///   Cancelled status to its caller.
/// - `OnFinish` is called exactly once after a successful `OnBegin`,
///   terminally: Ok after the last window, the failure status on error, or
///   Cancelled when `OnWindow` requested cancellation. No call on the sink
///   follows it.
///
/// Open-ended producers (`StreamingNetworkBuilder::EmitTo`) have no terminal
/// window and drive `OnWindow` only; sinks meant for that path must not
/// require `OnBegin` (see `CacheWindowSink`). `CollectingWindowSink` is a
/// bounded-producer sink and does require it.
///
/// Sinks are driven from one thread at a time; a sink shared between
/// producers must synchronize internally.
class WindowSink {
 public:
  virtual ~WindowSink() = default;

  /// Query metadata, once, before the first window.
  virtual Status OnBegin(const SlidingQuery& query, int64_t num_series) {
    (void)query;
    (void)num_series;
    return Status::Ok();
  }

  /// One finished window. Return false to cancel the producing query.
  virtual bool OnWindow(int64_t window_index, std::vector<Edge> edges) = 0;

  /// Terminal signal (see the class contract).
  virtual void OnFinish(const Status& status) { (void)status; }
};

/// The materializing sink: collects every window into a
/// `CorrelationMatrixSeries`. `CorrelationEngine::Query` is a thin wrapper
/// over `QueryToSink` with one of these, which is what keeps the historical
/// materialized API byte-identical to the streaming path.
class CollectingWindowSink final : public WindowSink {
 public:
  Status OnBegin(const SlidingQuery& query, int64_t num_series) override {
    series_ = CorrelationMatrixSeries(query, num_series);
    return Status::Ok();
  }

  bool OnWindow(int64_t window_index, std::vector<Edge> edges) override {
    *series_.MutableWindow(window_index) = std::move(edges);
    return true;
  }

  void OnFinish(const Status& status) override { status_ = status; }

  const Status& status() const { return status_; }

  /// The collected result; valid after OnFinish(Ok).
  CorrelationMatrixSeries TakeSeries() { return std::move(series_); }

 private:
  CorrelationMatrixSeries series_;
  Status status_ = Status::Ok();
};

/// The shared cancellation epilogue of every bounded producer: builds the
/// Cancelled status for `producer` stopping at `window_index` (the window
/// whose OnWindow returned false), delivers it through OnFinish, and
/// returns it for the producer to propagate.
Status FinishCancelled(WindowSink* sink, const char* producer,
                       int64_t window_index);

}  // namespace dangoron

#endif  // DANGORON_ENGINE_WINDOW_SINK_H_
