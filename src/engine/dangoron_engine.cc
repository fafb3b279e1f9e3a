#include "engine/dangoron_engine.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/failpoint.h"
#include "common/logging.h"
#include "common/math_utils.h"
#include "corr/block_kernel.h"
#include "corr/sweep_kernel.h"

namespace dangoron {

namespace {

// Tile chunks per pool thread of a jumping query's whole-query band: enough
// for the pool to balance uneven jump walks, few enough that the arena
// stays a handful of rows.
constexpr int64_t kJumpChunksPerThread = 4;

// Rejects what no exact evaluation of `query` against a sketch at
// `basic_window` over `length` columns can answer: a basic-window
// mismatch, an invalid range, or geometry off the basic-window grid.
Status CheckQueryGeometry(const DangoronOptions& options, int64_t basic_window,
                          int64_t length, const SlidingQuery& query) {
  const int64_t b = options.basic_window;
  if (b != basic_window) {
    return Status::InvalidArgument(
        "DangoronEngine: options.basic_window ", b,
        " does not match the sketch's ", basic_window);
  }
  RETURN_IF_ERROR(query.Validate(length));
  if (query.start % b != 0 || query.window % b != 0 || query.step % b != 0) {
    return Status::InvalidArgument(
        "DangoronEngine: query start/window/step must be multiples of the "
        "basic window ",
        b, " (got start=", query.start, " window=", query.window,
        " step=", query.step,
        "); use TsubasaEngine for arbitrary alignment");
  }
  return Status::Ok();
}

// A checked query's geometry in basic windows: window k reads prefix slots
// base_w0 + k*m and base_w0 + k*m + ns; last_slot is the last window's end.
struct QueryShape {
  int64_t num_windows = 0;
  int64_t base_w0 = 0;
  int64_t ns = 0;
  int64_t m = 0;
  int64_t last_slot = 0;
  int64_t pair_lo = 0;
  int64_t pair_hi = 0;
};

// Also records the evaluated problem size in `stats`. A pair-range
// restriction shrinks it; stats report the restricted size so shard-local
// counters add up to the full query's across a sharded deployment.
QueryShape ShapeOf(const DangoronOptions& options, const SlidingQuery& query,
                   int64_t num_series, EngineStats* stats) {
  const int64_t b = options.basic_window;
  QueryShape shape;
  shape.num_windows = query.NumWindows();
  shape.base_w0 = query.start / b;
  shape.ns = query.window / b;
  shape.m = query.step / b;
  shape.last_slot =
      shape.base_w0 + (shape.num_windows - 1) * shape.m + shape.ns;
  std::tie(shape.pair_lo, shape.pair_hi) =
      query.PairRange(num_series * (num_series - 1) / 2);
  if (stats != nullptr) {
    stats->num_windows = shape.num_windows;
    stats->num_pairs = shape.pair_hi - shape.pair_lo;
    stats->cells_total = shape.num_windows * stats->num_pairs;
  }
  return shape;
}

// The pass's per-(window, series) inputs, hoisted once so no cell ever
// divides or square-roots: the query-range sum and the reciprocal of the
// centered root sum of squares, [k * n + s] (0 for a degenerate series,
// making every correlation with it exactly 0, the PearsonFromMoments
// guard).
struct WindowInputs {
  std::vector<double> range_sum;
  std::vector<double> range_inv_css;
};

// Fills the inputs in parallel over windows; identical for any thread
// count.
WindowInputs HoistWindowInputs(const SeriesPrefixes& prefixes,
                               const SlidingQuery& query,
                               const QueryShape& shape, int64_t n,
                               ThreadPool* pool) {
  const double window_count = static_cast<double>(query.window);
  WindowInputs in;
  in.range_sum.resize(static_cast<size_t>(shape.num_windows * n));
  in.range_inv_css.resize(in.range_sum.size());
  auto fill_window = [&](int64_t k) {
    const int64_t lo = shape.base_w0 + k * shape.m;
    const int64_t hi = lo + shape.ns;
    double* sums = in.range_sum.data() + k * n;
    double* invs = in.range_inv_css.data() + k * n;
    for (int64_t s = 0; s < n; ++s) {
      const double sum = prefixes.SumRange(s, lo, hi);
      const double css =
          prefixes.SumSqRange(s, lo, hi) - sum * sum / window_count;
      sums[s] = sum;
      invs[s] = css > kMomentVarianceEps ? 1.0 / std::sqrt(css) : 0.0;
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && shape.num_windows > 1) {
    pool->ParallelFor(shape.num_windows, fill_window);
  } else {
    for (int64_t k = 0; k < shape.num_windows; ++k) {
      fill_window(k);
    }
  }
  return in;
}

// The geometry a band-streamed run of `query` needs its stream to cover.
BandStreamOptions StreamOptionsFor(const DangoronOptions& options,
                                   const SlidingQuery& query,
                                   int64_t num_series) {
  const QueryShape shape = ShapeOf(options, query, num_series, nullptr);
  const int64_t band = std::min(kSweepWindowBand, shape.num_windows);
  BandStreamOptions stream;
  stream.basic_window = options.basic_window;
  stream.band_slots = (band - 1) * shape.m + shape.ns + 1;
  stream.last_slot = shape.last_slot;
  stream.pair_begin = shape.pair_lo;
  stream.pair_end = shape.pair_hi;
  return stream;
}

// The scalar exact cell of the tile walk, whose operation sequence the
// vectorized sweep kernel mirrors lane for lane, so the two paths emit
// bit-identical edges. `sums` / `invs` point at the window's row of the
// hoisted moment arrays.
inline double ExactCellCorrelation(const BasicWindowIndex& index, int64_t pair,
                                   int64_t w0, int64_t ns, const double* sums,
                                   const double* invs, double inv_count,
                                   int64_t i, int64_t j) {
  const double cov =
      index.DotRange(pair, w0, w0 + ns) - sums[i] * sums[j] * inv_count;
  return ClampCorrelation(cov * invs[i] * invs[j]);
}

// The scalar tile walk of jumping queries: each pair of [pair_begin,
// pair_end), (i, j) first, walks windows [band_begin, band_end) in turn —
// the exact cell, then the Eq. 2 search for how many of its next windows
// may be skipped — appending its edges to out_windows[k - band_begin], so
// each window's part stays in ascending pair order. A jump never leaves the
// band. Past L2 the search's dependent probes into a pair's prefix rows
// miss one at a time, so the walk prefetches the rows kJumpPrefetchPairs
// pairs ahead, across tile ends. The index blocks sit on 2 MB pages
// (MapPageStorage), so a pair's rows no longer cost a page walk of their
// own; what the walk still pays per pair is TLB and DRAM latency on the
// rows' first lines, which a deeper prefetch (2-16 pairs) did not hide any
// better. The query's constants are copied into locals, which the loop's
// edge appends and counter stores cannot alias.
void WalkTile(const DangoronOptions& options, const BasicWindowIndex& index,
              const SlidingQuery& query, const QueryShape& shape,
              const WindowInputs& in, int64_t n, int64_t band_begin,
              int64_t band_end, int64_t pair_begin, int64_t pair_end,
              int64_t i, int64_t j, std::vector<Edge>* out_windows,
              EngineStats* local) {
  const auto [num_windows, base_w0, ns, m, last_slot, pair_lo, pair_hi] =
      shape;
  const double beta = query.threshold;
  const double inv_count = 1.0 / static_cast<double>(query.window);
  const TemporalBound bound(&index, ns, m);
  const int64_t omc_hi = base_w0 + (band_end - 1) * m;
  for (int64_t pair = pair_begin; pair < pair_end; ++pair) {
    if (pair + kJumpPrefetchPairs < pair_hi) {
      index.PrefetchPairRows(pair + kJumpPrefetchPairs,
                             base_w0 + band_begin * m, omc_hi + ns, omc_hi);
    }
    int64_t k = band_begin;
    while (k < band_end) {
      const int64_t w0 = base_w0 + k * m;
      const double corr = ExactCellCorrelation(
          index, pair, w0, ns, in.range_sum.data() + k * n,
          in.range_inv_css.data() + k * n, inv_count, i, j);
      ++local->cells_evaluated;
      const bool edge = query.IsEdge(corr);
      int64_t skip = 0;
      if (!edge || options.enable_above_jumping) {
        int64_t max_steps = band_end - 1 - k;
        if (options.max_jump_steps > 0) {
          max_steps = std::min(max_steps, options.max_jump_steps);
        }
        if (edge) {
          // An edge persists while it provably stays on its side of the
          // threshold: >= beta, or <= -beta for a negative (absolute-mode)
          // edge.
          skip = corr >= beta
                     ? bound.MaxSkippableAbove(pair, w0, corr, beta, max_steps)
                     : bound.MaxSkippableBelow(pair, w0, corr, -beta,
                                               max_steps);
        } else {
          // A non-edge is skippable while the bounds confine it below beta
          // (plain mode) or inside (-beta, beta) (absolute mode).
          skip = query.absolute
                     ? bound.MaxSkippableWithin(pair, w0, corr, -beta, beta,
                                                max_steps)
                     : bound.MaxSkippableBelow(pair, w0, corr, beta,
                                               max_steps);
        }
        if (skip > 0) {
          local->cells_jumped += skip;
          ++local->jumps;
        }
      }
      if (edge) {
        // Skipped windows of an edge stay edges and report the anchor value:
        // the bound certifies the threshold side, not the value.
        for (int64_t d = 0; d <= skip; ++d) {
          out_windows[k + d - band_begin].push_back(Edge{
              static_cast<int32_t>(i), static_cast<int32_t>(j), corr});
        }
      }
      k += skip + 1;
    }
    ++j;
    if (j >= n) {
      ++i;
      j = i + 1;
    }
  }
}

// The one pass of every Dangoron query. It reads dot prefixes from a
// resident `index` or from a `stream` whose ring slab it advances before
// each band (exactly one is set; only an index serves the tile walk).
// Pairs split into fixed kSweepTilePairs tiles and windows advance in
// bands; within a band the tiles run in parallel, then each of the band's
// windows is assembled flat — already sorted — and emitted in order. A
// tile of an exact query runs the vectorized sweep kernel; a jumping query
// runs the scalar tile walk instead.
//
// Exact bands are kSweepWindowBand windows: OnWindow(0) leaves after
// band/num_windows of the sweep, while the band keeps each pair's
// dot-prefix cache lines hot across its windows (pure per-window order is
// memory-bound at N >= 256). A streamed source first advances its build
// just far enough for the band, so the band reads a cache-sized slab. A
// jumping query's band is the whole query: a jump carries a pair's state
// across windows. On climate_approx's geometry (N = 512, one thread on a
// 4-vCPU Xeon), 16- and 32-window bands took 1.26-1.34x and 1.09-1.18x
// the former pair-major walk's time, one whole-query band 0.89-1.03x.
//
// The tile decomposition is not thread-derived and a pair's cells depend
// only on that pair, so results are identical for every thread count,
// either source and any pair-range restriction.
Status RunWindowMajorSweep(const DangoronOptions& options,
                           const BasicWindowIndex* index,
                           BandStreamedSketch* stream, int64_t n,
                           const SlidingQuery& query, const QueryShape& shape,
                           const WindowInputs& in, ThreadPool* pool,
                           EngineStats* stats, WindowSink* sink) {
  const auto [num_windows, base_w0, ns, m, last_slot, pair_lo, pair_hi] =
      shape;
  const int64_t num_tiles =
      std::max<int64_t>(int64_t{1}, CeilDiv(pair_hi - pair_lo, kSweepTilePairs));
  const int num_pool_threads = pool != nullptr ? pool->num_threads() : 1;
  const int64_t band =
      options.enable_jumping ? num_windows : kSweepWindowBand;

  // Arena rows: an exact band's tile tasks each own a row, reused across
  // bands. A jumping query's band is the whole query, so it gets one row
  // per contiguous chunk of tiles instead (a few chunks per thread for load
  // balance, one on a single thread): per-tile rows would hold num_tiles x
  // num_windows buffers.
  int64_t num_chunks = num_tiles;
  if (options.enable_jumping) {
    num_chunks = num_pool_threads > 1
                     ? std::min(num_tiles,
                                kJumpChunksPerThread * num_pool_threads)
                     : 1;
  }
  const int64_t tiles_per_row = CeilDiv(num_tiles, num_chunks);
  const int64_t num_rows = CeilDiv(num_tiles, tiles_per_row);
  SweepEdgeArena arena(num_rows, band);
  std::vector<EngineStats> tile_stats(static_cast<size_t>(num_tiles));
  auto fold_tile_stats = [&]() {
    for (const EngineStats& s : tile_stats) {
      stats->cells_evaluated += s.cells_evaluated;
      stats->cells_jumped += s.cells_jumped;
      stats->jumps += s.jumps;
    }
  };

  const PairDotRows rows =
      index != nullptr ? index->DotRows() : PairDotRows{};
  const SweepView view{.dot_prefix = rows.rows,
                       .row_stride = rows.row_stride,
                       .range_sum = in.range_sum.data(),
                       .range_inv_css = in.range_inv_css.data(),
                       .num_series = n,
                       .inv_count = 1.0 / static_cast<double>(query.window),
                       .threshold = query.threshold,
                       .absolute = query.absolute};

  for (int64_t band_begin = 0; band_begin < num_windows;
       band_begin += band) {
    // Band boundary is the pass's cancellation cadence, so it is also the
    // fault-injection site: an injected delay stretches every band (how
    // deadline tests make a sweep provably slow), an injected error aborts
    // the pass through the same terminal OnFinish path as a real failure.
    if (Status injected = DANGORON_FAILPOINT_STATUS("sweep.band");
        !injected.ok()) {
      fold_tile_stats();
      sink->OnFinish(injected);
      return injected;
    }
    const int64_t band_end = std::min(num_windows, band_begin + band);
    if (stream != nullptr) {
      stream->AdvanceTo(base_w0 + (band_end - 1) * m + ns, pool);
      DCHECK_GE(base_w0 + band_begin * m, stream->oldest_slot());
    }
    arena.BeginBand();

    auto run_tile = [&](int64_t t, std::vector<Edge>* out_windows) {
      const int64_t pair_begin = pair_lo + t * kSweepTilePairs;
      const int64_t pair_end =
          std::min(pair_hi, pair_begin + kSweepTilePairs);
      if (pair_begin >= pair_end) {
        return;  // no pairs at all (single-series data)
      }
      int64_t i = 0;
      int64_t j = 0;
      BasicWindowIndex::PairFromId(pair_begin, n, &i, &j);
      EngineStats* local = &tile_stats[static_cast<size_t>(t)];
      if (options.enable_jumping) {
        WalkTile(options, *index, query, shape, in, n, band_begin, band_end,
                 pair_begin, pair_end, i, j, out_windows, local);
        return;
      }
      if (stream != nullptr) {
        SweepWindowBandSlotRows(view, stream->Slots(), base_w0, ns, m,
                                band_begin, band_end, pair_begin, pair_end, i,
                                j, out_windows);
      } else {
        SweepWindowBandPairRange(view, base_w0 + kPairRowPad, ns, m,
                                 band_begin, band_end, pair_begin, pair_end,
                                 i, j, out_windows);
      }
      local->cells_evaluated +=
          (pair_end - pair_begin) * (band_end - band_begin);
    };

    // A row's tiles run in order, so it appends in ascending pair id.
    auto run_row = [&](int64_t row) {
      const int64_t t_end = std::min(num_tiles, (row + 1) * tiles_per_row);
      for (int64_t t = row * tiles_per_row; t < t_end; ++t) {
        run_tile(t, arena.row_windows(row));
      }
    };
    if (pool != nullptr && num_pool_threads > 1 && num_rows > 1) {
      pool->ParallelFor(num_rows, run_row);
    } else {
      for (int64_t row = 0; row < num_rows; ++row) {
        run_row(row);
      }
    }

    for (int64_t k = band_begin; k < band_end; ++k) {
      if (!sink->OnWindow(k, arena.AssembleWindow(k - band_begin))) {
        fold_tile_stats();
        return FinishCancelled(sink, "DangoronEngine", k);
      }
    }
  }
  fold_tile_stats();
  sink->OnFinish(Status::Ok());
  return Status::Ok();
}

}  // namespace

DangoronEngine::DangoronEngine(const DangoronOptions& options)
    : options_(options) {}

Result<BasicWindowIndex> DangoronEngine::BuildIndex(
    const TimeSeriesMatrix& data, const DangoronOptions& options,
    ThreadPool* pool) {
  if (options.basic_window <= 0) {
    return Status::InvalidArgument("DangoronEngine: basic_window must be > 0");
  }
  BasicWindowIndexOptions index_options;
  index_options.basic_window = options.basic_window;
  return BasicWindowIndex::Build(data, index_options, pool);
}

Status DangoronEngine::Prepare(const TimeSeriesMatrix& data) {
  if (options_.num_threads > 1) {
    pool_ = std::make_unique<ThreadPool>(options_.num_threads);
  } else {
    pool_.reset();
  }
  ASSIGN_OR_RETURN(BasicWindowIndex index,
                   BuildIndex(data, options_, pool_.get()));
  index_ = std::move(index);
  data_ = &data;
  return Status::Ok();
}

Status DangoronEngine::QueryToSink(const SlidingQuery& query,
                                   WindowSink* sink) {
  if (data_ == nullptr || !index_.has_value()) {
    return Status::FailedPrecondition("DangoronEngine: Prepare not called");
  }
  stats_.Reset();
  return QueryPreparedToSink(options_, *index_, query, pool_.get(), &stats_,
                             sink);
}

Result<CorrelationMatrixSeries> DangoronEngine::QueryPrepared(
    const DangoronOptions& options, const BasicWindowIndex& index,
    const SlidingQuery& query, ThreadPool* pool, EngineStats* stats) {
  CollectingWindowSink sink;
  RETURN_IF_ERROR(
      QueryPreparedToSink(options, index, query, pool, stats, &sink));
  return sink.TakeSeries();
}

Status DangoronEngine::QueryPreparedToSink(
    const DangoronOptions& options, const BasicWindowIndex& index,
    const SlidingQuery& query, ThreadPool* pool, EngineStats* stats,
    WindowSink* sink) {
  RETURN_IF_ERROR(CheckQueryGeometry(options, index.basic_window(),
                                     index.data().length(), query));
  EngineStats local_stats;
  if (stats == nullptr) {
    stats = &local_stats;
  }

  const int64_t n = index.num_series();
  const QueryShape shape = ShapeOf(options, query, n, stats);
  // The last window must be fully covered by indexed basic windows.
  if (shape.last_slot > index.num_basic_windows()) {
    return Status::OutOfRange(
        "DangoronEngine: query needs basic windows up to ", shape.last_slot,
        " but only ", index.num_basic_windows(), " are indexed");
  }
  RETURN_IF_ERROR(sink->OnBegin(query, n));

  const WindowInputs inputs =
      HoistWindowInputs(index.series_prefixes(), query, shape, n, pool);
  return RunWindowMajorSweep(options, &index, nullptr, n, query, shape,
                             inputs, pool, stats, sink);
}

Result<BandStreamedSketch> DangoronEngine::CreateStream(
    const TimeSeriesMatrix& data, const DangoronOptions& options,
    const SlidingQuery& query, ThreadPool* pool) {
  RETURN_IF_ERROR(
      CheckQueryGeometry(options, options.basic_window, data.length(), query));
  return BandStreamedSketch::Create(
      data, StreamOptionsFor(options, query, data.num_series()), pool);
}

int64_t DangoronEngine::EstimateStreamBytes(int64_t num_series, int64_t length,
                                            const DangoronOptions& options,
                                            const SlidingQuery& query) {
  if (num_series <= 0 ||
      !CheckQueryGeometry(options, options.basic_window, length, query).ok()) {
    return 0;
  }
  return BandStreamedSketch::EstimateMemoryBytes(
      num_series, length, StreamOptionsFor(options, query, num_series));
}

Status DangoronEngine::QueryStreamedToSink(const DangoronOptions& options,
                                           BandStreamedSketch* stream,
                                           const SlidingQuery& query,
                                           ThreadPool* pool,
                                           EngineStats* stats,
                                           WindowSink* sink) {
  if (options.enable_jumping) {
    return Status::InvalidArgument(
        "DangoronEngine: a band-streamed query runs the exact sweep only "
        "(jumping needs a resident index)");
  }
  RETURN_IF_ERROR(CheckQueryGeometry(options, stream->basic_window(),
                                     stream->length(), query));
  EngineStats local_stats;
  if (stats == nullptr) {
    stats = &local_stats;
  }
  const int64_t n = stream->num_series();
  const QueryShape shape = ShapeOf(options, query, n, stats);
  const BandStreamOptions& covered = stream->options();
  const BandStreamOptions needed = StreamOptionsFor(options, query, n);
  if (shape.last_slot > covered.last_slot ||
      shape.pair_lo < covered.pair_begin || shape.pair_hi > covered.pair_end ||
      needed.band_slots > covered.band_slots) {
    return Status::InvalidArgument(
        "DangoronEngine: query reaches past its stream (slots up to ",
        shape.last_slot, ", pairs [", shape.pair_lo, ", ", shape.pair_hi,
        "), ", needed.band_slots, " slots per band)");
  }
  if (shape.base_w0 < stream->oldest_slot()) {
    return Status::FailedPrecondition(
        "DangoronEngine: stream already advanced past slot ", shape.base_w0,
        " (streams only move forward)");
  }
  RETURN_IF_ERROR(sink->OnBegin(query, n));
  const WindowInputs inputs =
      HoistWindowInputs(stream->series_prefixes(), query, shape, n, pool);
  return RunWindowMajorSweep(options, nullptr, stream, n, query, shape,
                             inputs, pool, stats, sink);
}

Status DangoronEngine::QueryStreamedToSink(const DangoronOptions& options,
                                           const TimeSeriesMatrix& data,
                                           const SlidingQuery& query,
                                           ThreadPool* pool,
                                           EngineStats* stats,
                                           WindowSink* sink) {
  ASSIGN_OR_RETURN(BandStreamedSketch stream,
                   CreateStream(data, options, query, pool));
  return QueryStreamedToSink(options, &stream, query, pool, stats, sink);
}

}  // namespace dangoron
