#include "stream/streaming_builder.h"

#include <cmath>

#include "corr/pearson.h"
#include "sketch/basic_window_index.h"

namespace dangoron {

Result<StreamingNetworkBuilder> StreamingNetworkBuilder::Create(
    int64_t num_series, const StreamingOptions& options) {
  if (num_series < 2) {
    return Status::InvalidArgument(
        "StreamingNetworkBuilder: need at least 2 series, got ", num_series);
  }
  if (options.basic_window <= 0) {
    return Status::InvalidArgument(
        "StreamingNetworkBuilder: basic_window must be positive");
  }
  if (options.window <= 0 || options.window % options.basic_window != 0) {
    return Status::InvalidArgument(
        "StreamingNetworkBuilder: window must be a positive multiple of the "
        "basic window (window=",
        options.window, ", b=", options.basic_window, ")");
  }
  if (options.step <= 0 || options.step % options.basic_window != 0) {
    return Status::InvalidArgument(
        "StreamingNetworkBuilder: step must be a positive multiple of the "
        "basic window (step=",
        options.step, ", b=", options.basic_window, ")");
  }
  if (options.threshold < -1.0 || options.threshold > 1.0) {
    return Status::InvalidArgument(
        "StreamingNetworkBuilder: threshold must be in [-1, 1]");
  }

  StreamingNetworkBuilder builder;
  builder.num_series_ = num_series;
  builder.num_pairs_ = num_series * (num_series - 1) / 2;
  builder.options_ = options;
  builder.ns_ = options.window / options.basic_window;
  builder.m_ = options.step / options.basic_window;
  builder.pending_.assign(
      static_cast<size_t>(options.basic_window * num_series), 0.0);
  builder.window_series_sum_.assign(static_cast<size_t>(num_series), 0.0);
  builder.window_series_sumsq_.assign(static_cast<size_t>(num_series), 0.0);
  builder.window_pair_dot_.assign(static_cast<size_t>(builder.num_pairs_),
                                  0.0);
  builder.emit_threshold_ = options.threshold;
  return builder;
}

Status StreamingNetworkBuilder::Append(std::span<const double> column) {
  if (static_cast<int64_t>(column.size()) != num_series_) {
    return Status::InvalidArgument("Append: column has ", column.size(),
                                   " values, expected ", num_series_);
  }
  for (const double v : column) {
    if (IsMissing(v)) {
      return Status::FailedPrecondition(
          "Append: missing value in stream; interpolate upstream");
    }
  }
  double* tick =
      &pending_[static_cast<size_t>(pending_ticks_ * num_series_)];
  for (int64_t s = 0; s < num_series_; ++s) {
    tick[s] = column[static_cast<size_t>(s)];
  }
  ++pending_ticks_;
  if (pending_ticks_ == options_.basic_window) {
    FoldBasicWindow();
    pending_ticks_ = 0;
  }
  return Status::Ok();
}

Status StreamingNetworkBuilder::AppendColumns(const TimeSeriesMatrix& matrix,
                                              int64_t start, int64_t count) {
  if (matrix.num_series() != num_series_) {
    return Status::InvalidArgument("AppendColumns: matrix has ",
                                   matrix.num_series(), " series, expected ",
                                   num_series_);
  }
  if (start < 0 || count < 0 || start + count > matrix.length()) {
    return Status::OutOfRange("AppendColumns: [", start, ", ", start + count,
                              ") out of [0, ", matrix.length(), ")");
  }
  std::vector<double> column(static_cast<size_t>(num_series_));
  for (int64_t t = start; t < start + count; ++t) {
    for (int64_t s = 0; s < num_series_; ++s) {
      column[static_cast<size_t>(s)] = matrix.Get(s, t);
    }
    RETURN_IF_ERROR(Append(column));
  }
  return Status::Ok();
}

void StreamingNetworkBuilder::FoldBasicWindow() {
  const int64_t b = options_.basic_window;
  // Per-series statistics of the completed basic window.
  std::vector<double> series_sum(static_cast<size_t>(num_series_), 0.0);
  std::vector<double> series_sumsq(static_cast<size_t>(num_series_), 0.0);
  for (int64_t t = 0; t < b; ++t) {
    const double* tick = &pending_[static_cast<size_t>(t * num_series_)];
    for (int64_t s = 0; s < num_series_; ++s) {
      series_sum[static_cast<size_t>(s)] += tick[s];
      series_sumsq[static_cast<size_t>(s)] += tick[s] * tick[s];
    }
  }
  // Per-pair inner products. The tick-major pending buffer keeps both
  // series' values adjacent per tick.
  std::vector<double> pair_dot(static_cast<size_t>(num_pairs_), 0.0);
  for (int64_t t = 0; t < b; ++t) {
    const double* tick = &pending_[static_cast<size_t>(t * num_series_)];
    int64_t p = 0;
    for (int64_t i = 0; i < num_series_; ++i) {
      const double vi = tick[i];
      for (int64_t j = i + 1; j < num_series_; ++j, ++p) {
        pair_dot[static_cast<size_t>(p)] += vi * tick[j];
      }
    }
  }

  // Fold into the rolling window, evicting the departing basic window.
  for (int64_t s = 0; s < num_series_; ++s) {
    window_series_sum_[static_cast<size_t>(s)] +=
        series_sum[static_cast<size_t>(s)];
    window_series_sumsq_[static_cast<size_t>(s)] +=
        series_sumsq[static_cast<size_t>(s)];
  }
  for (int64_t p = 0; p < num_pairs_; ++p) {
    window_pair_dot_[static_cast<size_t>(p)] +=
        pair_dot[static_cast<size_t>(p)];
  }
  ring_series_sum_.push_back(std::move(series_sum));
  ring_series_sumsq_.push_back(std::move(series_sumsq));
  ring_pair_dot_.push_back(std::move(pair_dot));
  if (static_cast<int64_t>(ring_series_sum_.size()) > ns_) {
    const std::vector<double>& old_sum = ring_series_sum_.front();
    const std::vector<double>& old_sumsq = ring_series_sumsq_.front();
    const std::vector<double>& old_dot = ring_pair_dot_.front();
    for (int64_t s = 0; s < num_series_; ++s) {
      window_series_sum_[static_cast<size_t>(s)] -=
          old_sum[static_cast<size_t>(s)];
      window_series_sumsq_[static_cast<size_t>(s)] -=
          old_sumsq[static_cast<size_t>(s)];
    }
    for (int64_t p = 0; p < num_pairs_; ++p) {
      window_pair_dot_[static_cast<size_t>(p)] -=
          old_dot[static_cast<size_t>(p)];
    }
    ring_series_sum_.pop_front();
    ring_series_sumsq_.pop_front();
    ring_pair_dot_.pop_front();
  }
  ++basic_windows_seen_;

  // Emit when a step boundary aligns with a full window and a sink is
  // attached to take it.
  if (sink_ == nullptr || basic_windows_seen_ < ns_ ||
      (basic_windows_seen_ - ns_) % m_ != 0) {
    return;
  }
  const double count = static_cast<double>(options_.window);
  std::vector<Edge> edges;
  int64_t p = 0;
  for (int64_t i = 0; i < num_series_; ++i) {
    for (int64_t j = i + 1; j < num_series_; ++j, ++p) {
      const double c = PearsonFromMoments(
          count, window_series_sum_[static_cast<size_t>(i)],
          window_series_sum_[static_cast<size_t>(j)],
          window_series_sumsq_[static_cast<size_t>(i)],
          window_series_sumsq_[static_cast<size_t>(j)],
          window_pair_dot_[static_cast<size_t>(p)]);
      const bool is_edge =
          options_.absolute
              ? (c <= -emit_threshold_ || c >= emit_threshold_)
              : c >= emit_threshold_;
      if (is_edge) {
        edges.push_back(
            Edge{static_cast<int32_t>(i), static_cast<int32_t>(j), c});
      }
    }
  }
  // The emitted edge walk is (i, j) ascending — already the canonical sink
  // order — and the edges move straight into the sink: one buffer, shared
  // onward (e.g. into a server's window cache) without a copy. A false
  // return detaches the sink; the window it cancelled on was consumed by
  // the sink (the engines' ownership rule).
  if (!sink_->OnWindow((basic_windows_seen_ - ns_) / m_, std::move(edges))) {
    EmitTo(nullptr);  // family publishing ends too
  }
}

void StreamingNetworkBuilder::EmitTo(WindowSink* sink) {
  sink_ = sink;
  publish_sink_.reset();
  emit_threshold_ = options_.threshold;
}

void StreamingNetworkBuilder::PublishTo(WindowResultCache* cache,
                                        uint64_t dataset_fingerprint) {
  // The builder's own threshold was validated by Create; no re-check.
  AttachPublishSink(cache, dataset_fingerprint, options_.threshold);
}

Status StreamingNetworkBuilder::PublishTo(WindowResultCache* cache,
                                          uint64_t dataset_fingerprint,
                                          double publish_threshold) {
  if (publish_threshold < -1.0 || publish_threshold > 1.0 ||
      (options_.absolute && publish_threshold < 0.0)) {
    return Status::InvalidArgument(
        "PublishTo: publish threshold ", publish_threshold,
        " outside the valid range ",
        options_.absolute ? "[0, 1] of absolute mode" : "[-1, 1]");
  }
  AttachPublishSink(cache, dataset_fingerprint, publish_threshold);
  return Status::Ok();
}

void StreamingNetworkBuilder::AttachPublishSink(WindowResultCache* cache,
                                                uint64_t dataset_fingerprint,
                                                double publish_threshold) {
  if (cache == nullptr) {
    EmitTo(nullptr);
    return;
  }
  CacheWindowSink::FixedGeometry geometry;
  geometry.window_bws = ns_;
  geometry.step_bws = m_;
  geometry.start0_bw = 0;  // the stream is fed from column 0 by contract
  geometry.threshold = publish_threshold;
  geometry.absolute = options_.absolute;
  publish_sink_ = std::make_unique<CacheWindowSink>(
      cache, dataset_fingerprint, options_.basic_window, geometry);
  sink_ = publish_sink_.get();
  // Evaluate emitted windows at the publish threshold so the key's promise
  // — "exactly the edges clearing it" — holds (cache-key soundness).
  emit_threshold_ = publish_threshold;
}

}  // namespace dangoron
