#include "engine/tsubasa_engine.h"

#include <algorithm>
#include <cmath>

#include "common/math_utils.h"
#include "corr/pearson.h"

namespace dangoron {

namespace {

// Raw-data partial sums over columns [t0, t1) of series `s`.
struct PartialMoments {
  double sum = 0.0;
  double sumsq = 0.0;
};

PartialMoments RawMoments(const TimeSeriesMatrix& data, int64_t s, int64_t t0,
                          int64_t t1) {
  PartialMoments m;
  if (t1 <= t0) {
    return m;
  }
  std::span<const double> values = data.RowRange(s, t0, t1 - t0);
  for (const double v : values) {
    m.sum += v;
    m.sumsq += v * v;
  }
  return m;
}

double RawDot(const TimeSeriesMatrix& data, int64_t i, int64_t j, int64_t t0,
              int64_t t1) {
  if (t1 <= t0) {
    return 0.0;
  }
  std::span<const double> x = data.RowRange(i, t0, t1 - t0);
  std::span<const double> y = data.RowRange(j, t0, t1 - t0);
  double dot = 0.0;
  for (size_t t = 0; t < x.size(); ++t) {
    dot += x[t] * y[t];
  }
  return dot;
}

}  // namespace

TsubasaEngine::TsubasaEngine(const TsubasaOptions& options)
    : options_(options) {}

Status TsubasaEngine::Prepare(const TimeSeriesMatrix& data) {
  if (options_.basic_window <= 0) {
    return Status::InvalidArgument("TsubasaEngine: basic_window must be > 0");
  }
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  } else {
    pool_.reset();
  }
  BasicWindowIndexOptions index_options;
  index_options.basic_window = options_.basic_window;
  ASSIGN_OR_RETURN(BasicWindowIndex index,
                   BasicWindowIndex::Build(data, index_options, pool_.get()));
  index_ = std::move(index);
  data_ = &data;
  return Status::Ok();
}

Status TsubasaEngine::QueryToSink(const SlidingQuery& query,
                                  WindowSink* sink) {
  if (data_ == nullptr || !index_.has_value()) {
    return Status::FailedPrecondition("TsubasaEngine: Prepare not called");
  }
  RETURN_IF_ERROR(query.Validate(data_->length()));
  if (query.HasPairRestriction()) {
    return Status::InvalidArgument(
        "TsubasaEngine: pair-range restriction is not supported; route "
        "restricted queries to DangoronEngine");
  }
  stats_.Reset();

  const int64_t n = data_->num_series();
  const int64_t b = options_.basic_window;
  const int64_t num_windows = query.NumWindows();
  stats_.num_windows = num_windows;
  stats_.num_pairs = n * (n - 1) / 2;
  stats_.cells_total = stats_.num_windows * stats_.num_pairs;

  RETURN_IF_ERROR(sink->OnBegin(query, n));
  const BasicWindowIndex& index = *index_;

  // Reused per-window per-series moment buffers.
  std::vector<double> series_sum(static_cast<size_t>(n));
  std::vector<double> series_sumsq(static_cast<size_t>(n));

  for (int64_t k = 0; k < num_windows; ++k) {
    const int64_t a = query.start + k * query.step;
    const int64_t e = a + query.window;
    // Full basic windows contained in [a, e); partial edges come from raw.
    // Clamp to the indexed range (a ragged series tail is not indexed).
    int64_t full_lo = CeilDiv(a, b);
    int64_t full_hi = std::min(e / b, index.num_basic_windows());
    const int64_t head_begin = a;
    int64_t head_end;
    int64_t tail_begin;
    if (full_hi <= full_lo) {
      // No usable full basic window: the whole range is raw.
      full_lo = full_hi = 0;
      head_end = e;
      tail_begin = e;
    } else {
      head_end = full_lo * b;
      tail_begin = full_hi * b;
    }
    const int64_t tail_end = e;

    // Per-series window moments: the faithful O(ns) recombination per
    // series, plus raw partial edges.
    for (int64_t s = 0; s < n; ++s) {
      double sum = 0.0;
      double sumsq = 0.0;
      for (int64_t w = full_lo; w < full_hi; ++w) {
        sum += index.SumRange(s, w, w + 1);
        sumsq += index.SumSqRange(s, w, w + 1);
      }
      const PartialMoments head = RawMoments(*data_, s, head_begin, head_end);
      const PartialMoments tail = RawMoments(*data_, s, tail_begin, tail_end);
      series_sum[static_cast<size_t>(s)] = sum + head.sum + tail.sum;
      series_sumsq[static_cast<size_t>(s)] = sumsq + head.sumsq + tail.sumsq;
    }

    std::vector<Edge> edges;
    const double count = static_cast<double>(query.window);
    // Pair ids are contiguous along the canonical (i, j) walk.
    int64_t p = 0;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i + 1; j < n; ++j, ++p) {
        // O(ns) sketch recombination: one prefix-difference per basic
        // window, matching TSUBASA's per-window combination cost.
        double dot = 0.0;
        for (int64_t w = full_lo; w < full_hi; ++w) {
          dot += index.DotRange(p, w, w + 1);
        }
        dot += RawDot(*data_, i, j, head_begin, head_end);
        dot += RawDot(*data_, i, j, tail_begin, tail_end);
        const double c = PearsonFromMoments(
            count, series_sum[static_cast<size_t>(i)],
            series_sum[static_cast<size_t>(j)],
            series_sumsq[static_cast<size_t>(i)],
            series_sumsq[static_cast<size_t>(j)], dot);
        ++stats_.cells_evaluated;
        if (query.IsEdge(c)) {
          edges.push_back(
              Edge{static_cast<int32_t>(i), static_cast<int32_t>(j), c});
        }
      }
    }
    if (!sink->OnWindow(k, std::move(edges))) {
      return FinishCancelled(sink, "TsubasaEngine", k);
    }
  }
  sink->OnFinish(Status::Ok());
  return Status::Ok();
}

}  // namespace dangoron
