#ifndef DANGORON_STREAM_STREAMING_BUILDER_H_
#define DANGORON_STREAM_STREAMING_BUILDER_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "engine/query.h"
#include "engine/window_sink.h"
#include "serve/cache_sink.h"
#include "serve/window_result_cache.h"
#include "ts/time_series_matrix.h"

namespace dangoron {

/// Options of the streaming network builder.
struct StreamingOptions {
  /// Basic window size b (columns). Arriving columns are buffered until a
  /// full basic window completes, then folded into the rolling sketch.
  int64_t basic_window = 24;
  /// Snapshot window l (columns); must be a positive multiple of b.
  int64_t window = 24 * 30;
  /// Sliding step eta (columns); must be a positive multiple of b.
  int64_t step = 24;
  /// Edge threshold beta.
  double threshold = 0.8;
  /// When true, |corr| >= beta makes an edge (see SlidingQuery::absolute).
  bool absolute = false;
};

/// Online counterpart of the offline engines: data arrives column by column
/// (one observation per series per tick) and a thresholded correlation
/// network is emitted to the attached sink every `step` columns once the
/// first full window has been seen — the "network construction and
/// updates ... to achieve interactivity" challenge of the paper's problem
/// statement. Window indices are 0-based and match the offline engines'
/// numbering.
///
/// Mechanics: completed basic windows are folded into rolling per-series
/// (sum, sum-of-squares) and per-pair (inner product) accumulators over the
/// current window, adding the entering basic window and evicting the
/// departing one — O(N^2) work per emitted snapshot and
/// O(N^2 * ns) memory, independent of stream length. On the same data it
/// emits the same edges as DangoronEngine in incremental mode, with values
/// within 1e-9 (jumping needs future statistics, which a stream does not
/// have).
///
/// Not thread-safe; feed it from one thread.
class StreamingNetworkBuilder {
 public:
  /// Validates options; `num_series` is fixed for the builder's lifetime.
  static Result<StreamingNetworkBuilder> Create(
      int64_t num_series, const StreamingOptions& options);

  /// Appends one column: `column[s]` is series s's observation at the next
  /// tick. Missing values (NaN) are rejected — interpolate upstream.
  Status Append(std::span<const double> column);

  /// Convenience: appends a whole matrix column range column-by-column.
  Status AppendColumns(const TimeSeriesMatrix& matrix, int64_t start,
                       int64_t count);

  /// Routes every window emitted from now on into `sink` — the same
  /// `WindowSink` pipeline the offline engines drive. The stream is
  /// open-ended: the builder drives `OnWindow` only (window indices ascend
  /// with the builder's numbering; no OnBegin/OnFinish). A false return
  /// from OnWindow detaches the sink, and the window it cancelled on
  /// belongs to the sink. With no sink attached the builder keeps folding
  /// basic windows, so a later sink picks up the numbering, but it
  /// evaluates and emits no window. The sink must outlive the builder or
  /// be detached (pass nullptr) first.
  void EmitTo(WindowSink* sink);

  /// Publishes every snapshot emitted from now on into `cache` as dataset
  /// `dataset_fingerprint`, keyed at this builder's geometry and threshold —
  /// so a serving layer's historical queries reuse windows the live stream
  /// already evaluated (the stream must be fed the dataset from column 0 for
  /// the window numbering to line up). Implemented as EmitTo with an owned
  /// CacheWindowSink, which replaces any attached sink. To interoperate with a server running threshold-family keys,
  /// pick a stream threshold on the server's grid (see
  /// DangoronServer::CanonicalThreshold). Values agree with the server's
  /// sketch-evaluated windows up to floating-point roundoff; at an exact
  /// threshold tie the two paths could round an edge differently, the usual
  /// caveat of mixing algebraically equal evaluations. The cache must
  /// outlive the builder; pass nullptr to detach.
  void PublishTo(WindowResultCache* cache, uint64_t dataset_fingerprint);

  /// Family-threshold publishing: like PublishTo above, but emitted windows
  /// are *evaluated and keyed* at `publish_threshold` instead of the
  /// builder's own threshold — pass the server's grid value
  /// (`DangoronServer::CanonicalThreshold(options.threshold,
  /// options.absolute)`) and the live stream warms the server's
  /// threshold-family caches even when the alert threshold is off-grid.
  /// The cache-key soundness rule holds by construction: the set keyed at
  /// `publish_threshold` contains exactly the edges clearing it (the
  /// builder evaluates at that value); with publish_threshold <= the alert
  /// threshold each published window is a superset of the alert edges, the
  /// same superset-then-filter contract the server's family cache uses.
  /// Detaching (nullptr cache, EmitTo, or a cancelling sink) restores
  /// emission at the builder's own threshold. Fails on a threshold outside
  /// [-1, 1] (or outside [0, 1] in absolute mode) without touching the
  /// current sink.
  Status PublishTo(WindowResultCache* cache, uint64_t dataset_fingerprint,
                   double publish_threshold);

 private:
  StreamingNetworkBuilder() = default;

  // Folds the completed basic window in pending_ into the rolling state and
  // emits a window to the sink when a window boundary is crossed.
  void FoldBasicWindow();

  // The shared attach/detach body of both PublishTo forms (threshold
  // already validated).
  void AttachPublishSink(WindowResultCache* cache,
                         uint64_t dataset_fingerprint,
                         double publish_threshold);

  int64_t num_series_ = 0;
  int64_t num_pairs_ = 0;
  StreamingOptions options_;
  int64_t ns_ = 0;  // basic windows per snapshot window
  int64_t m_ = 0;   // basic windows per step

  // Buffer of the currently filling basic window: column-major ticks,
  // pending_[t * num_series + s].
  std::vector<double> pending_;
  int64_t pending_ticks_ = 0;

  // Ring of the last ns_ basic windows' statistics. Element layout:
  // series_sum/sumsq: [bw][series]; pair_dot: [bw][pair].
  std::deque<std::vector<double>> ring_series_sum_;
  std::deque<std::vector<double>> ring_series_sumsq_;
  std::deque<std::vector<double>> ring_pair_dot_;

  // Rolling totals over the basic windows currently in the ring.
  std::vector<double> window_series_sum_;
  std::vector<double> window_series_sumsq_;
  std::vector<double> window_pair_dot_;

  int64_t basic_windows_seen_ = 0;

  // Threshold snapshots are currently evaluated at: the builder's own
  // threshold, except while a family-threshold publish sink is attached
  // (see the three-argument PublishTo), when it is the publish threshold.
  double emit_threshold_ = 0.0;

  // Attached emission sink (see EmitTo); not owned. When PublishTo wired a
  // cache, publish_sink_ owns the adapter and sink_ points at it.
  WindowSink* sink_ = nullptr;
  std::unique_ptr<CacheWindowSink> publish_sink_;
};

}  // namespace dangoron

#endif  // DANGORON_STREAM_STREAMING_BUILDER_H_
