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

// Pairs the jump walk prefetches ahead (ProcessPairBlock). A pair's walk
// reads the query-range segment of its two prefix rows — about 20 cache
// lines for 61 windows of 30 basic windows — through the dependent probes
// of the Eq. 2 binary search, and each pair's rows sit a whole sketch row
// past the last pair's, so an unprefetched walk waits on memory once per
// probe. Measured on the climate_approx geometry (N = 512, twelve 90-day
// ranges, one thread on a 4-vCPU Xeon, -march=cooperlake, results
// unchanged): the walk took 0.64-0.71x the unprefetched time at distances
// 1-8, within 2% of each other; 16 was 3% slower.
constexpr int64_t kJumpPrefetchPairs = 4;

// The scalar exact cell both scalar paths (pair-major loop, window-major
// pruned leg) share — and whose operation sequence the vectorized sweep
// kernel mirrors lane for lane: one definition, so the bit-identity
// contract between the paths cannot drift. `sums` / `invs` point at the
// window's row of the hoisted moment arrays.
inline double ExactCellCorrelation(const BasicWindowIndex& index, int64_t pair,
                                   int64_t w0, int64_t ns, const double* sums,
                                   const double* invs, double inv_count,
                                   int64_t i, int64_t j) {
  const double cov =
      index.DotRange(pair, w0, w0 + ns) - sums[i] * sums[j] * inv_count;
  return ClampCorrelation(cov * invs[i] * invs[j]);
}

// Horizontal pruning decision for one cell: intersect the
// triangle-inequality intervals across pivots; the cell is pruned when the
// intersected interval cannot contain an edge value (in absolute mode that
// requires the whole interval inside (-beta, beta)). `pc_base` points at
// the window's pivot-correlation block [p * n + s].
inline bool HorizontallyPruned(const double* pc_base, int64_t P, int64_t n,
                               double beta, bool absolute, int64_t i,
                               int64_t j) {
  double upper = 1.0;
  double lower = -1.0;
  const double* pc = pc_base;
  for (int64_t p = 0; p < P; ++p, pc += n) {
    const HorizontalBound hb = HorizontalBoundFromPivot(pc[i], pc[j]);
    upper = std::min(upper, hb.upper);
    lower = std::max(lower, hb.lower);
    if (upper < beta && (!absolute || lower > -beta)) {
      break;
    }
  }
  return upper < beta && (!absolute || lower > -beta);
}

// Processes pairs [pair_begin, pair_end) sequentially, filling
// `local_windows` (one edge vector per window) and `local_stats`.
// `range_sum` / `range_inv_css` are the hoisted per-(window, series) query
// range sums and reciprocal centered root-sum-of-squares (0 for degenerate
// series), window-major [k * n + s]: the per-cell correlation is then two
// prefix loads, one fused subtract, and two multiplies — no divide or
// sqrt on the hot path. Reads only immutable state, so pair blocks of any
// number of concurrent queries may run against one shared index.
void ProcessPairBlock(const DangoronOptions& options,
                      const BasicWindowIndex& index, const SlidingQuery& query,
                      int64_t pair_begin, int64_t pair_end, int64_t base_w0,
                      int64_t ns, int64_t m,
                      const std::vector<double>& range_sum,
                      const std::vector<double>& range_inv_css,
                      const std::vector<double>& pivot_corrs,
                      std::vector<std::vector<Edge>>* local_windows,
                      EngineStats* local_stats) {
  const int64_t n = index.num_series();
  const int64_t num_windows = query.NumWindows();
  const double beta = query.threshold;
  const double inv_count = 1.0 / static_cast<double>(query.window);
  const TemporalBound bound(&index, ns, m);
  const int64_t P = options.horizontal_pruning ? options.num_pivots : 0;

  // The slots any walk of this query can read: DotRange endpoints up to the
  // last window's end, jump-search probes up to the last window's start.
  const int64_t omc_hi = base_w0 + (num_windows - 1) * m;
  const int64_t dot_hi = omc_hi + ns;

  int64_t i = 0;
  int64_t j = 0;
  if (pair_begin < pair_end) {
    BasicWindowIndex::PairFromId(pair_begin, n, &i, &j);
  }
  for (int64_t pair = pair_begin; pair < pair_end; ++pair) {
    if (pair + kJumpPrefetchPairs < pair_end) {
      index.PrefetchPairRows(pair + kJumpPrefetchPairs, base_w0, dot_hi,
                             omc_hi);
    }
    int64_t k = 0;
    while (k < num_windows) {
      const int64_t w0 = base_w0 + k * m;

      if (P > 0 && HorizontallyPruned(pivot_corrs.data() + k * P * n, P, n,
                                      beta, query.absolute, i, j)) {
        ++local_stats->cells_horizontal_pruned;
        ++k;
        continue;
      }

      // O(1) exact range correlation from the dot prefix and the hoisted
      // moments: no divide or sqrt per cell.
      const double corr = ExactCellCorrelation(
          index, pair, w0, ns, range_sum.data() + k * n,
          range_inv_css.data() + k * n, inv_count, i, j);
      ++local_stats->cells_evaluated;

      int64_t max_steps = num_windows - 1 - k;
      if (options.max_jump_steps > 0) {
        max_steps = std::min(max_steps, options.max_jump_steps);
      }

      if (query.IsEdge(corr)) {
        (*local_windows)[static_cast<size_t>(k)].push_back(
            Edge{static_cast<int32_t>(i), static_cast<int32_t>(j), corr});
        if (options.enable_jumping && options.enable_above_jumping) {
          // Edge persists while it provably stays on the same side of its
          // threshold: >= beta for positive edges, <= -beta for negative
          // (absolute-mode) edges.
          const int64_t skip =
              corr >= beta
                  ? bound.MaxSkippableAbove(pair, w0, corr, beta, max_steps)
                  : bound.MaxSkippableBelow(pair, w0, corr, -beta,
                                            max_steps);
          if (skip > 0) {
            // Skipped windows stay edges; report the anchor value (the
            // bound certifies threshold crossing, not the exact value).
            for (int64_t d = 1; d <= skip; ++d) {
              (*local_windows)[static_cast<size_t>(k + d)].push_back(
                  Edge{static_cast<int32_t>(i), static_cast<int32_t>(j),
                       corr});
            }
            local_stats->cells_jumped += skip;
            ++local_stats->jumps;
            k += skip;
          }
        }
        ++k;
      } else {
        if (options.enable_jumping) {
          // A non-edge is skippable while the bounds confine it below beta
          // (plain mode) or inside (-beta, beta) (absolute mode).
          const int64_t skip =
              query.absolute
                  ? bound.MaxSkippableWithin(pair, w0, corr, -beta, beta,
                                             max_steps)
                  : bound.MaxSkippableBelow(pair, w0, corr, beta, max_steps);
          if (skip > 0) {
            // Windows k+1 .. k+skip are assumed non-edges: nothing emitted.
            local_stats->cells_jumped += skip;
            ++local_stats->jumps;
            k += skip;
          }
        }
        ++k;
      }
    }

    // Advance (i, j) to the next canonical pair.
    ++j;
    if (j >= n) {
      ++i;
      j = i + 1;
    }
  }
}

// Where the window-major sweep reads dot prefixes: a resident index's
// block, or a band-streamed ring slab advanced before each band (exactly
// one is set; only a resident index serves the scalar pruned leg).
struct SweepSource {
  const BasicWindowIndex* index = nullptr;
  BandStreamedSketch* stream = nullptr;
};

// Window-major exact sweep (jumping off): windows advance in bands of
// kSweepWindowBand; within a band, pair tiles run in parallel through the
// vectorized sweep kernel (or the scalar pruned cell loop when horizontal
// pruning is on), then each of the band's windows is assembled flat —
// already sorted — and emitted in order. The engine itself streams:
// OnWindow(0) leaves after band/num_windows of the sweep instead of after
// all of it, while the band keeps each pair's dot-prefix cache lines hot
// across its windows (pure per-window order is memory-bound at N >= 256;
// see kSweepWindowBand). A streamed source first advances its build just
// far enough for the band, so the band reads a cache-sized slab instead of
// the whole block. The tile decomposition is fixed (kSweepTilePairs), not
// thread-derived, and cells are independent, so results are identical for
// every thread count and either source — and bit-identical to the
// pair-major scalar loop (the kernel mirrors its per-cell operation
// sequence exactly).
Status RunWindowMajorSweep(const DangoronOptions& options,
                           const SweepSource& source, int64_t n,
                           const SlidingQuery& query, ThreadPool* pool,
                           EngineStats* stats, WindowSink* sink,
                           int64_t base_w0, int64_t ns, int64_t m,
                           const std::vector<double>& range_sum,
                           const std::vector<double>& range_inv_css,
                           const std::vector<double>& pivot_corrs) {
  const int64_t num_windows = query.NumWindows();
  const int64_t num_pairs = n * (n - 1) / 2;
  // Pair-range restriction (sharding): tiles cover [pair_lo, pair_hi) only.
  // Cells are independent, so the per-cell operation sequence — and with it
  // the emitted edges — is identical to the same pairs' cells in an
  // unrestricted run, whatever the tile alignment.
  const auto [pair_lo, pair_hi] = query.PairRange(num_pairs);
  const int64_t num_tiles =
      std::max<int64_t>(int64_t{1}, CeilDiv(pair_hi - pair_lo, kSweepTilePairs));
  const int num_pool_threads = pool != nullptr ? pool->num_threads() : 1;
  const double beta = query.threshold;
  const double inv_count = 1.0 / static_cast<double>(query.window);
  const int64_t P = options.horizontal_pruning ? options.num_pivots : 0;

  SweepEdgeArena arena(num_tiles, kSweepWindowBand);
  std::vector<EngineStats> tile_stats(static_cast<size_t>(num_tiles));
  auto fold_tile_stats = [&]() {
    for (const EngineStats& s : tile_stats) {
      stats->cells_evaluated += s.cells_evaluated;
      stats->cells_horizontal_pruned += s.cells_horizontal_pruned;
    }
  };

  const PairDotRing ring = source.stream != nullptr
                               ? source.stream->DotRing()
                               : source.index->DotRing();
  SweepView view;
  view.dot_prefix = ring.rows;
  view.row_stride = ring.ring_slots;
  view.first_pair = ring.first_pair;
  view.range_sum = range_sum.data();
  view.range_inv_css = range_inv_css.data();
  view.num_series = n;
  view.inv_count = inv_count;
  view.threshold = beta;
  view.absolute = query.absolute;

  for (int64_t band_begin = 0; band_begin < num_windows;
       band_begin += kSweepWindowBand) {
    // Band boundary is the sweep's cancellation cadence, so it is also the
    // fault-injection site: an injected delay stretches every band (how
    // deadline tests make a sweep provably slow), an injected error aborts
    // the sweep through the same terminal OnFinish path as a real failure.
    if (Status injected = DANGORON_FAILPOINT_STATUS("sweep.band");
        !injected.ok()) {
      fold_tile_stats();
      sink->OnFinish(injected);
      return injected;
    }
    const int64_t band_end =
        std::min(num_windows, band_begin + kSweepWindowBand);
    if (source.stream != nullptr) {
      source.stream->AdvanceTo(base_w0 + (band_end - 1) * m + ns, pool);
      DCHECK_GE(base_w0 + band_begin * m, source.stream->oldest_slot());
    }
    arena.BeginBand();

    auto run_tile = [&](int64_t t) {
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
      std::vector<Edge>* out_windows = arena.tile_windows(t);
      if (P == 0) {
        SweepWindowBandRing(view, kPairRowPad, base_w0, ns, m, band_begin,
                            band_end, pair_begin, pair_end, i, j,
                            out_windows);
        local->cells_evaluated +=
            (pair_end - pair_begin) * (band_end - band_begin);
        return;
      }
      // Pruned cells are inherently branchy (per-cell pivot-interval
      // intersection), so this leg stays scalar — the same shared cell
      // helpers as the pair-major loop, visited in window-major order for
      // the streaming emission.
      for (int64_t pair = pair_begin; pair < pair_end; ++pair) {
        for (int64_t k = band_begin; k < band_end; ++k) {
          if (HorizontallyPruned(pivot_corrs.data() + k * P * n, P, n, beta,
                                 query.absolute, i, j)) {
            ++local->cells_horizontal_pruned;
            continue;
          }
          const double corr = ExactCellCorrelation(
              *source.index, pair, base_w0 + k * m, ns,
              range_sum.data() + k * n,
              range_inv_css.data() + k * n, inv_count, i, j);
          ++local->cells_evaluated;
          if (query.IsEdge(corr)) {
            out_windows[k - band_begin].push_back(Edge{
                static_cast<int32_t>(i), static_cast<int32_t>(j), corr});
          }
        }
        ++j;
        if (j >= n) {
          ++i;
          j = i + 1;
        }
      }
    };

    if (pool != nullptr && num_pool_threads > 1 && num_tiles > 1) {
      pool->ParallelFor(num_tiles, run_tile);
    } else {
      for (int64_t t = 0; t < num_tiles; ++t) {
        run_tile(t);
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

// Hoisted per-(window, series) range moments, window-major [k * n + s]:
// the query-range sum and the reciprocal of the centered root sum of
// squares (0 for a degenerate series, making every correlation with it
// exactly 0, the PearsonFromMoments guard). Computed once so neither the
// pivot precomputation nor the pair loop ever divides or square-roots per
// cell. Parallel over windows; identical for any thread count.
void HoistRangeMoments(const SeriesPrefixes& prefixes,
                       const SlidingQuery& query, const QueryShape& shape,
                       int64_t n, ThreadPool* pool,
                       std::vector<double>* range_sum,
                       std::vector<double>* range_inv_css) {
  const double window_count = static_cast<double>(query.window);
  range_sum->resize(static_cast<size_t>(shape.num_windows * n));
  range_inv_css->resize(static_cast<size_t>(shape.num_windows * n));
  auto fill_window_moments = [&](int64_t k) {
    const int64_t w0 = shape.base_w0 + k * shape.m;
    double* sums = range_sum->data() + k * n;
    double* invs = range_inv_css->data() + k * n;
    for (int64_t s = 0; s < n; ++s) {
      const double sum = prefixes.SumRange(s, w0, w0 + shape.ns);
      const double css =
          prefixes.SumSqRange(s, w0, w0 + shape.ns) - sum * sum / window_count;
      sums[s] = sum;
      invs[s] = css > kMomentVarianceEps ? 1.0 / std::sqrt(css) : 0.0;
    }
  };
  if (pool != nullptr && pool->num_threads() > 1 && shape.num_windows > 1) {
    pool->ParallelFor(shape.num_windows, fill_window_moments);
  } else {
    for (int64_t k = 0; k < shape.num_windows; ++k) {
      fill_window_moments(k);
    }
  }
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
  if (options_.horizontal_pruning && options_.num_pivots <= 0) {
    return Status::InvalidArgument(
        "DangoronEngine: horizontal pruning needs num_pivots > 0");
  }
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
                             sink, &pivots_);
}

Result<CorrelationMatrixSeries> DangoronEngine::QueryPrepared(
    const DangoronOptions& options, const BasicWindowIndex& index,
    const SlidingQuery& query, ThreadPool* pool, EngineStats* stats,
    std::vector<int64_t>* pivots_out) {
  CollectingWindowSink sink;
  RETURN_IF_ERROR(QueryPreparedToSink(options, index, query, pool, stats,
                                      &sink, pivots_out));
  return sink.TakeSeries();
}

Status DangoronEngine::QueryPreparedToSink(
    const DangoronOptions& options, const BasicWindowIndex& index,
    const SlidingQuery& query, ThreadPool* pool, EngineStats* stats,
    WindowSink* sink, std::vector<int64_t>* pivots_out) {
  RETURN_IF_ERROR(CheckQueryGeometry(options, index.basic_window(),
                                     index.data().length(), query));
  if (options.horizontal_pruning && options.num_pivots <= 0) {
    return Status::InvalidArgument(
        "DangoronEngine: horizontal pruning needs num_pivots > 0");
  }
  EngineStats local_stats;
  if (stats == nullptr) {
    stats = &local_stats;
  }

  const int64_t n = index.num_series();
  const QueryShape shape = ShapeOf(options, query, n, stats);
  const int64_t num_windows = shape.num_windows;
  const int64_t base_w0 = shape.base_w0;
  const int64_t ns = shape.ns;
  const int64_t m = shape.m;
  const int64_t pair_lo = shape.pair_lo;
  const int64_t pair_hi = shape.pair_hi;
  const int64_t eval_pairs = pair_hi - pair_lo;

  // The last window must be fully covered by indexed basic windows.
  if (shape.last_slot > index.num_basic_windows()) {
    return Status::OutOfRange(
        "DangoronEngine: query needs basic windows up to ", shape.last_slot,
        " but only ", index.num_basic_windows(), " are indexed");
  }
  RETURN_IF_ERROR(sink->OnBegin(query, n));

  const int num_pool_threads = pool != nullptr ? pool->num_threads() : 1;
  std::vector<double> range_sum;
  std::vector<double> range_inv_css;
  HoistRangeMoments(index.series_prefixes(), query, shape, n, pool,
                    &range_sum, &range_inv_css);
  const double window_count = static_cast<double>(query.window);

  // Pivot correlations for horizontal pruning: pivot_corrs[k * P * n + p * n
  // + s] = corr(pivot_p, series_s) in window k, computed exactly in O(1)
  // per cell from the pair sketches and the hoisted moments, parallel over
  // windows.
  std::vector<double> pivot_corrs;
  std::vector<int64_t> pivots;
  if (options.horizontal_pruning) {
    const int64_t P = options.num_pivots;
    for (int64_t p = 0; p < P; ++p) {
      pivots.push_back(p * n / P);  // evenly spaced, deterministic
    }
    pivot_corrs.assign(static_cast<size_t>(num_windows * P * n), 1.0);
    auto fill_window_pivots = [&](int64_t k) {
      const int64_t w0 = base_w0 + k * m;
      const double* sums = range_sum.data() + k * n;
      const double* invs = range_inv_css.data() + k * n;
      for (int64_t p = 0; p < P; ++p) {
        const int64_t z = pivots[static_cast<size_t>(p)];
        double* out = pivot_corrs.data() + (k * P + p) * n;
        const double sum_z = sums[z];
        const double inv_z = invs[z];
        for (int64_t s = 0; s < n; ++s) {
          if (s == z) {
            continue;  // stays 1.0
          }
          const int64_t pair = BasicWindowIndex::PairId(z, s, n);
          const double cov = index.DotRange(pair, w0, w0 + ns) -
                             sum_z * sums[s] / window_count;
          out[s] = ClampCorrelation(cov * inv_z * invs[s]);
        }
      }
    };
    if (pool != nullptr && num_pool_threads > 1 && num_windows > 1) {
      pool->ParallelFor(num_windows, fill_window_pivots);
    } else {
      for (int64_t k = 0; k < num_windows; ++k) {
        fill_window_pivots(k);
      }
    }
    stats->pivot_evaluations += num_windows * P * (n - 1);
  }
  if (pivots_out != nullptr) {
    *pivots_out = pivots;
  }

  // Exact mode goes window-major through the sweep kernel: windows are
  // emitted while the sweep runs. The jumping path below must stay
  // pair-major — a jump decision at window k determines whether windows
  // k+1.. are even evaluated for that pair — and doubles as the scalar
  // differential oracle when use_sweep_kernel is off.
  if (!options.enable_jumping && options.use_sweep_kernel) {
    return RunWindowMajorSweep(options,
                               SweepSource{&index, nullptr},
                               n, query, pool, stats, sink, base_w0, ns, m,
                               range_sum, range_inv_css, pivot_corrs);
  }

  // Pair-block decomposition: contiguous ranges of pair ids, processed
  // independently. Deterministic regardless of thread count.
  const int64_t num_blocks =
      num_pool_threads > 1
          ? std::min<int64_t>(eval_pairs,
                              static_cast<int64_t>(num_pool_threads) * 8)
          : 1;
  const int64_t block_size = num_blocks > 0 ? CeilDiv(eval_pairs, num_blocks) : 0;

  std::vector<std::vector<std::vector<Edge>>> block_windows(
      static_cast<size_t>(num_blocks));
  std::vector<EngineStats> block_stats(static_cast<size_t>(num_blocks));

  auto run_block = [&](int64_t block) {
    const int64_t pair_begin = pair_lo + block * block_size;
    const int64_t pair_end = std::min(pair_hi, pair_begin + block_size);
    auto& local = block_windows[static_cast<size_t>(block)];
    local.assign(static_cast<size_t>(num_windows), {});
    ProcessPairBlock(options, index, query, pair_begin, pair_end, base_w0, ns,
                     m, range_sum, range_inv_css, pivot_corrs, &local,
                     &block_stats[static_cast<size_t>(block)]);
  };

  if (pool != nullptr && num_blocks > 1) {
    pool->ParallelFor(num_blocks, run_block);
  } else {
    for (int64_t block = 0; block < num_blocks; ++block) {
      run_block(block);
    }
  }

  for (const EngineStats& s : block_stats) {
    stats->cells_evaluated += s.cells_evaluated;
    stats->cells_jumped += s.cells_jumped;
    stats->cells_horizontal_pruned += s.cells_horizontal_pruned;
    stats->jumps += s.jumps;
  }

  // Emit windows in order, each as soon as it is assembled. No sort: blocks
  // cover ascending, contiguous pair-id ranges and each appends in
  // ascending pair order (an above-jump fills windows k+1.. for its pair
  // before the next pair is walked), so the block-order concatenation is
  // already in EdgeOrder — the SweepEdgeArena::AssembleWindow argument.
  for (int64_t k = 0; k < num_windows; ++k) {
    std::vector<Edge> window;
    if (num_blocks == 1) {
      window = std::move(block_windows[0][static_cast<size_t>(k)]);
    } else {
      size_t total = 0;
      for (const auto& local : block_windows) {
        total += local[static_cast<size_t>(k)].size();
      }
      window.reserve(total);
      for (const auto& local : block_windows) {
        const auto& edges = local[static_cast<size_t>(k)];
        window.insert(window.end(), edges.begin(), edges.end());
      }
    }
    DCHECK(std::is_sorted(window.begin(), window.end(), EdgeOrder));
    if (!sink->OnWindow(k, std::move(window))) {
      return FinishCancelled(sink, "DangoronEngine", k);
    }
  }
  sink->OnFinish(Status::Ok());
  return Status::Ok();
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
  if (options.enable_jumping || !options.use_sweep_kernel ||
      options.horizontal_pruning) {
    return Status::InvalidArgument(
        "DangoronEngine: a band-streamed query runs the exact sweep only "
        "(jumping, the scalar oracle and horizontal pruning need a "
        "resident index)");
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
  std::vector<double> range_sum;
  std::vector<double> range_inv_css;
  HoistRangeMoments(stream->series_prefixes(), query, shape, n, pool,
                    &range_sum, &range_inv_css);
  return RunWindowMajorSweep(options,
                             SweepSource{nullptr, stream},
                             n, query, pool, stats, sink, shape.base_w0,
                             shape.ns, shape.m, range_sum, range_inv_css,
                             /*pivot_corrs=*/{});
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
