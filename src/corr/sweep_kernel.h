#ifndef DANGORON_CORR_SWEEP_KERNEL_H_
#define DANGORON_CORR_SWEEP_KERNEL_H_

#include <cstdint>
#include <vector>

#include "corr/block_kernel.h"
#include "engine/query.h"

namespace dangoron {

/// Pair-tile granularity of the window-major exact sweep. Fixed (not derived
/// from the thread count) so the tile decomposition — and with it the exact
/// SIMD/remainder split at tile boundaries — is identical for every pool
/// size; determinism across thread counts then needs no assumptions beyond
/// per-cell arithmetic being order-free, which it is (cells are
/// independent).
inline constexpr int64_t kSweepTilePairs = 1024;

/// Windows swept per pass over the pair tiles. Pure window-major order
/// (band 1) re-streams every pair's dot-prefix cache lines once per window,
/// which is memory-bound at N >= 256: the whole prefix block re-enters the
/// core per window. A band keeps each pair's two prefix lines L1-resident
/// across `kSweepWindowBand` windows (traffic divided by the band) while
/// windows are still emitted at band cadence — time-to-first-window is
/// band/num_windows of the sweep instead of 1.0. 16 windows x 2 lines is
/// well inside L1 next to the streamed moment rows; measured on
/// bench_query_time it restores the compute-bound per-cell cost of the
/// small-N regime (band 1: ~1.3x over scalar at N=256; band 16: ~2.8x).
inline constexpr int64_t kSweepWindowBand = 16;

/// Immutable per-query view the exact sweep kernel reads: pair dot-prefix
/// rows plus the engine's hoisted range moments (see
/// DangoronEngine::QueryPreparedToSink). Column c of pair p's row sits at
/// `dot_prefix[(p - first_pair) * row_stride + c]` — a resident index's
/// block or a band-streamed ring slab (sketch/'s PairDotRing);
/// `range_sum` / `range_inv_css` are window-major `[k * num_series + s]` —
/// the query-range sum and reciprocal centered root-sum-of-squares (0 for
/// degenerate series) of series s in window k.
struct SweepView {
  const double* dot_prefix = nullptr;
  int64_t row_stride = 0;
  int64_t first_pair = 0;
  const double* range_sum = nullptr;
  const double* range_inv_css = nullptr;
  int64_t num_series = 0;
  /// 1 / query.window — the covariance normalizer.
  double inv_count = 0.0;
  double threshold = 0.0;
  bool absolute = false;
};

/// The banded window-major exact sweep: computes the correlations of the
/// contiguous pair-id range [pair_begin, pair_end) for windows
/// [k_begin, k_end) — window k reading row columns lo = base_w0 + k*m and
/// hi = lo + ns (ns may be negative: see SweepWindowBandRing) — and
/// appends the edges clearing the
/// threshold to `out_windows[k - k_begin]`, each window's survivors in
/// ascending pair-id order (== the canonical (i, j) edge order, so
/// concatenating tile outputs in tile order yields sorted windows with no
/// sort pass).
///
/// `i0` / `j0` are the series ids of `pair_begin` (callers already know
/// them from BasicWindowIndex::PairFromId; corr/ stays below sketch/ in the
/// layering). Within a fixed-i run the pair ids — and with them the dot
/// prefix rows — advance contiguously and the j-side moments are contiguous
/// loads, so the run vectorizes: two strided prefix loads, one fused
/// subtract, two multiplies and a clamp per lane, then one branch-free
/// threshold compare per 8-lane group. The window loop sits *inside* the
/// 8-pair group so the group's prefix lines are reused across the whole
/// band. Per-cell arithmetic is the exact operation sequence of the scalar
/// cell of DangoronEngine's tile walk, so the two paths produce
/// bit-identical edges.
void SweepWindowBandPairRange(const SweepView& view, int64_t base_w0,
                              int64_t ns, int64_t m, int64_t k_begin,
                              int64_t k_end, int64_t pair_begin,
                              int64_t pair_end, int64_t i0, int64_t j0,
                              std::vector<Edge>* out_windows);

/// SweepWindowBandPairRange over rows in ring addressing: prefix slot s of
/// each pair sits at column (s + slot_offset) mod view.row_stride. Window k
/// covers slots [base_w0 + k*m, base_w0 + k*m + ns). The band is cut where
/// its lo or hi column wraps — at most twice, since one band's slots fit
/// the ring — and each piece runs the unchanged kernel with
/// base_w0' = base_w0 + slot_offset − a·R and ns' = ns − (c − a)·R, where a
/// and c count the wraps of the piece's lo and hi slots. A resident
/// index's block is the ring as long as its stride, which never wraps:
/// one piece, the plain kernel call.
void SweepWindowBandRing(const SweepView& view, int64_t slot_offset,
                         int64_t base_w0, int64_t ns, int64_t m,
                         int64_t k_begin, int64_t k_end, int64_t pair_begin,
                         int64_t pair_end, int64_t i0, int64_t j0,
                         std::vector<Edge>* out_windows);

/// The survivor arena of the banded window-major sweep: one edge buffer per
/// (pair tile, band window), cleared — not deallocated — between bands,
/// replacing the per-block `vector<vector<vector<Edge>>>` nesting whose
/// per-window inner vectors were reallocated from scratch every query
/// (allocation churn that dominates at high thresholds, where windows hold
/// a handful of edges). Tile rows are written by concurrent tile tasks
/// (disjoint slots) and assembled into flat windows on the emitting thread.
class SweepEdgeArena {
 public:
  SweepEdgeArena(int64_t num_tiles, int64_t band)
      : tiles_(static_cast<size_t>(num_tiles)) {
    for (std::vector<std::vector<Edge>>& tile : tiles_) {
      tile.resize(static_cast<size_t>(band));
    }
  }

  /// Tile t's per-band-window output row, indexable [0, band).
  std::vector<Edge>* tile_windows(int64_t t) {
    return tiles_[static_cast<size_t>(t)].data();
  }

  /// Clears every buffer, retaining capacity for the next band.
  void BeginBand() {
    for (std::vector<std::vector<Edge>>& tile : tiles_) {
      for (std::vector<Edge>& window : tile) {
        window.clear();
      }
    }
  }

  /// Concatenates band slot `b` of every tile, in tile order, into one flat
  /// window — already sorted by (i, j), because tiles cover ascending
  /// pair-id ranges and each tile appends in ascending pair-id order.
  std::vector<Edge> AssembleWindow(int64_t b) const {
    size_t total = 0;
    for (const std::vector<std::vector<Edge>>& tile : tiles_) {
      total += tile[static_cast<size_t>(b)].size();
    }
    std::vector<Edge> window;
    window.reserve(total);
    for (const std::vector<std::vector<Edge>>& tile : tiles_) {
      const std::vector<Edge>& part = tile[static_cast<size_t>(b)];
      window.insert(window.end(), part.begin(), part.end());
    }
    return window;
  }

 private:
  std::vector<std::vector<std::vector<Edge>>> tiles_;
};

}  // namespace dangoron

#endif  // DANGORON_CORR_SWEEP_KERNEL_H_
