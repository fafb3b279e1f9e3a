#ifndef DANGORON_ENGINE_DANGORON_ENGINE_H_
#define DANGORON_ENGINE_DANGORON_ENGINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "bound/bounds.h"
#include "common/thread_pool.h"
#include "engine/correlation_engine.h"
#include "sketch/band_streamed_sketch.h"
#include "sketch/basic_window_index.h"

namespace dangoron {

/// Pairs a jumping tile walk prefetches ahead. A pair's walk reads the
/// query-range segment of its two prefix rows — about 20 cache lines for 61
/// windows of 30 basic windows — through the dependent probes of the Eq. 2
/// binary search, and each pair's rows sit a whole sketch row past the last
/// pair's, so an unprefetched walk waits on memory once per probe. Measured
/// on the climate_approx geometry (N = 512, twelve 90-day ranges, one
/// thread on a 4-vCPU Xeon, -march=cooperlake, results unchanged): the walk
/// took 0.64-0.71x the unprefetched time at distances 1-8, within 2% of
/// each other; 16 was 3% slower.
inline constexpr int64_t kJumpPrefetchPairs = 4;

/// Options of the Dangoron engine.
struct DangoronOptions {
  /// Basic window size `b`; query start/window/step must be multiples of it.
  int64_t basic_window = 24;

  /// Eq. 2 temporal jumping over below-threshold stretches (the paper's core
  /// optimization, Figure 2). Off = "incremental" mode: every window is
  /// evaluated exactly in O(1) from the sketch prefixes — exact results,
  /// still far cheaper than TSUBASA's O(ns) recombination. On, each pair
  /// tile runs the scalar tile walk over the whole query as one band (a
  /// jump at window k decides whether the pair's later windows are
  /// evaluated at all), so windows are emitted only once the walk is done.
  bool enable_jumping = true;

  /// Extension (off by default): also skip stretches that provably (under
  /// the Eq. 2 assumption) stay *above* threshold, emitting the anchor
  /// window's value for the skipped windows. Trades value accuracy inside
  /// persistent edges for speed.
  bool enable_above_jumping = false;

  /// Cap on a single jump (0 = unbounded). Bounding jumps limits the damage
  /// of an Eq. 2 violation on non-stationary data.
  int64_t max_jump_steps = 0;

  /// Horizontal (pivot / triangle-inequality) pruning.
  bool horizontal_pruning = false;
  /// Number of pivot series when horizontal pruning is on.
  int32_t num_pivots = 8;

  /// Worker threads (pair-tile parallelism; results are deterministic and
  /// identical to the single-threaded run).
  int32_t num_threads = 1;
};

/// The paper's contribution: sliding-window correlation-matrix construction
/// with basic-window sketches, O(1) aligned-window evaluation via prefix
/// sums, Eq. 2 bound-driven jumping across windows, and optional horizontal
/// pruning via pivot series.
///
/// Exactness: with `enable_jumping == false` results are exact (identical to
/// NaiveEngine / TsubasaEngine up to floating-point roundoff). With jumping
/// on, skipped windows are *assumed* below threshold per Eq. 2 — exact on
/// data satisfying the stationarity assumption, > 90% edge accuracy on the
/// paper's climate workloads.
class DangoronEngine : public CorrelationEngine {
 public:
  explicit DangoronEngine(const DangoronOptions& options = {});

  std::string name() const override {
    return options_.enable_jumping ? "dangoron" : "dangoron-incremental";
  }
  Status Prepare(const TimeSeriesMatrix& data) override;
  /// Every mode runs window-major in bands over fixed pair tiles and emits
  /// each band's windows in order as soon as the band completes. Exact mode
  /// (jumping off) uses bands of corr/sweep_kernel.h's kSweepWindowBand, so
  /// the first window leaves after ~band/num_windows of the work. With
  /// jumping on, the band is the whole query (jumping couples consecutive
  /// windows along a pair), so windows leave once the tile walk completes.
  Status QueryToSink(const SlidingQuery& query, WindowSink* sink) override;

  const DangoronOptions& options() const { return options_; }

  /// The pivot series indices used by the last horizontally pruned query.
  const std::vector<int64_t>& pivots() const { return pivots_; }

  /// The build half of Prepare as a pure function of (data, options): the
  /// index a serving layer constructs once and shares read-only. `pool` may
  /// be null (serial build).
  static Result<BasicWindowIndex> BuildIndex(const TimeSeriesMatrix& data,
                                             const DangoronOptions& options,
                                             ThreadPool* pool);

  /// The query half against an externally owned, immutable index — the
  /// const-correct shared path of the serving layer. Touches only local
  /// state, so any number of concurrent calls may share one `index` (and one
  /// reentrant `pool`). `options.basic_window` must match the index's.
  /// `stats` and `pivots_out` are optional outputs; `pool` may be null.
  static Result<CorrelationMatrixSeries> QueryPrepared(
      const DangoronOptions& options, const BasicWindowIndex& index,
      const SlidingQuery& query, ThreadPool* pool, EngineStats* stats,
      std::vector<int64_t>* pivots_out = nullptr);

  /// Sink-driving form of QueryPrepared: same computation, windows emitted
  /// to `sink` in ascending order at band cadence (see QueryToSink).
  /// QueryPrepared is this with a CollectingWindowSink.
  static Status QueryPreparedToSink(const DangoronOptions& options,
                                    const BasicWindowIndex& index,
                                    const SlidingQuery& query,
                                    ThreadPool* pool, EngineStats* stats,
                                    WindowSink* sink,
                                    std::vector<int64_t>* pivots_out = nullptr);

  /// Band-streamed exact evaluation (jumping off, sweep kernel, no
  /// horizontal pruning): the same window-major sweep, range-moment hoist
  /// and emission as QueryPreparedToSink, but each band first advances
  /// `stream`'s blocked build just far enough and reads the band's slots
  /// from its cache-sized ring slab — no full pair block is ever
  /// materialized, and the Eq. 2 budget is never computed. Edges are
  /// bit-identical to QueryPreparedToSink against a blocked index of the
  /// same data. One stream may serve several calls (the serving layer's
  /// claimed runs) as long as their windows move forward and stay inside
  /// the geometry it was created for (CreateStream).
  static Status QueryStreamedToSink(const DangoronOptions& options,
                                    BandStreamedSketch* stream,
                                    const SlidingQuery& query,
                                    ThreadPool* pool, EngineStats* stats,
                                    WindowSink* sink);
  /// One-shot form: creates the stream for `query`, then runs it.
  static Status QueryStreamedToSink(const DangoronOptions& options,
                                    const TimeSeriesMatrix& data,
                                    const SlidingQuery& query,
                                    ThreadPool* pool, EngineStats* stats,
                                    WindowSink* sink);

  /// The stream `query` (and any later, forward part of it) runs against:
  /// its ring sized for the query's band span, its build bounded by the
  /// query's last slot and its pair range. The stream borrows `data`, which
  /// must outlive it: it normalizes each chunk of basic windows from the
  /// raw rows as it folds them.
  static Result<BandStreamedSketch> CreateStream(const TimeSeriesMatrix& data,
                                                 const DangoronOptions& options,
                                                 const SlidingQuery& query,
                                                 ThreadPool* pool);
  /// CreateStream's MemoryBytes() without building it (0 for a query no
  /// stream can serve) — the serving layer's transient reservation.
  static int64_t EstimateStreamBytes(int64_t num_series, int64_t length,
                                     const DangoronOptions& options,
                                     const SlidingQuery& query);

 private:
  DangoronOptions options_;
  const TimeSeriesMatrix* data_ = nullptr;
  std::optional<BasicWindowIndex> index_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<int64_t> pivots_;
};

}  // namespace dangoron

#endif  // DANGORON_ENGINE_DANGORON_ENGINE_H_
