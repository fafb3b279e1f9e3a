#ifndef DANGORON_CORR_SWEEP_KERNEL_H_
#define DANGORON_CORR_SWEEP_KERNEL_H_

#include <cstdint>
#include <utility>
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

/// Immutable per-query view the exact sweep kernels read: the engine's
/// hoisted range moments (see DangoronEngine::QueryPreparedToSink) and,
/// for the pair-row kernel, a resident index's pair-major dot-prefix rows —
/// slot s of pair p at `dot_prefix[p * row_stride + s]`, the index's
/// kPairRowPad offset folded into the caller's base slot.
/// `range_sum` / `range_inv_css` are window-major `[k * num_series + s]` —
/// the query-range sum and reciprocal centered root-sum-of-squares (0 for
/// degenerate series) of series s in window k.
struct SweepView {
  const double* dot_prefix = nullptr;
  int64_t row_stride = 0;
  const double* range_sum = nullptr;
  const double* range_inv_css = nullptr;
  int64_t num_series = 0;
  /// 1 / query.window — the covariance normalizer.
  double inv_count = 0.0;
  double threshold = 0.0;
  bool absolute = false;
};

/// Read view of a slot-major ring slab (sketch/'s BandStreamedSketch):
/// `ring_slots` rows of `row_width` doubles, prefix slot s of pair (i, j)
/// at Row(s)[Column(i, j)]. Columns advance with j, so a fixed-i run of
/// pairs is contiguous within every row.
struct SlotRingView {
  const double* slab = nullptr;
  int64_t ring_slots = 0;
  int64_t row_width = 0;
  /// Column of pair (i, 0): series_col[i] + j is pair (i, j)'s.
  const int64_t* series_col = nullptr;

  const double* Row(int64_t slot) const {
    return slab + slot % ring_slots * row_width;
  }
  int64_t Column(int64_t i, int64_t j) const { return series_col[i] + j; }
};

/// The banded window-major exact sweep over a resident index's pair rows:
/// computes the correlations of the contiguous pair-id range
/// [pair_begin, pair_end) for windows [k_begin, k_end) — window k reading
/// row columns lo = base_w0 + k*m and hi = lo + ns — and appends the edges
/// clearing the threshold to `out_windows[k - k_begin]`, each window's
/// survivors in ascending pair-id order (== the canonical (i, j) edge
/// order, so concatenating tile outputs in tile order yields sorted
/// windows with no sort pass).
///
/// `i0` / `j0` are the series ids of `pair_begin` (callers already know
/// them from BasicWindowIndex::PairFromId; corr/ stays below sketch/ in the
/// layering). Within a fixed-i run the pair ids — and with them the dot
/// prefix rows — advance contiguously and the j-side moments are contiguous
/// loads, so the run vectorizes: 16 strided prefix loads per 8-lane group
/// and window, then the shared lane arithmetic (one fused subtract, two
/// multiplies, a clamp and one branch-free threshold compare). The window
/// loop sits *inside* the 8-pair group so the group's prefix lines are
/// reused across the whole band. Per-cell arithmetic is the exact
/// operation sequence of the scalar cell of DangoronEngine's tile walk, so
/// the two paths produce bit-identical edges.
void SweepWindowBandPairRange(const SweepView& view, int64_t base_w0,
                              int64_t ns, int64_t m, int64_t k_begin,
                              int64_t k_end, int64_t pair_begin,
                              int64_t pair_end, int64_t i0, int64_t j0,
                              std::vector<Edge>* out_windows);

/// SweepWindowBandPairRange over a slot-major ring: window k reads slot
/// rows lo = base_w0 + k*m and hi = lo + ns of `ring` (wrapping is the
/// per-slot modulo of SlotRingView::Row), so each 8-pair group's lo and hi
/// prefixes are two contiguous vector loads. Windows run outer: each
/// window streams its two rows' stretch of the pair range front to back,
/// which the hardware prefetchers follow (pairs outer would walk 4 x band
/// streams at once). Same lane arithmetic, same edges, same order: a
/// band-streamed query emits bit for bit what a resident one does.
void SweepWindowBandSlotRows(const SweepView& view, const SlotRingView& ring,
                             int64_t base_w0, int64_t ns, int64_t m,
                             int64_t k_begin, int64_t k_end,
                             int64_t pair_begin, int64_t pair_end, int64_t i0,
                             int64_t j0, std::vector<Edge>* out_windows);

/// The survivor arena of the banded window-major sweep: one edge buffer per
/// (row, band window), cleared — not deallocated — between bands,
/// replacing the per-block `vector<vector<vector<Edge>>>` nesting whose
/// per-window inner vectors were reallocated from scratch every query
/// (allocation churn that dominates at high thresholds, where windows hold
/// a handful of edges). A row belongs to one contiguous run of pair tiles,
/// which one task walks in order; rows are written by concurrent tasks
/// (disjoint slots) and assembled into flat windows on the emitting thread.
class SweepEdgeArena {
 public:
  SweepEdgeArena(int64_t num_rows, int64_t band)
      : rows_(static_cast<size_t>(num_rows)) {
    for (std::vector<std::vector<Edge>>& row : rows_) {
      row.resize(static_cast<size_t>(band));
    }
  }

  /// Row r's per-band-window output, indexable [0, band).
  std::vector<Edge>* row_windows(int64_t r) {
    return rows_[static_cast<size_t>(r)].data();
  }

  /// Clears every buffer, retaining capacity for the next band.
  void BeginBand() {
    for (std::vector<std::vector<Edge>>& row : rows_) {
      for (std::vector<Edge>& window : row) {
        window.clear();
      }
    }
  }

  /// Concatenates band slot `b` of every row, in row order, into one flat
  /// window — already sorted by (i, j), because rows cover ascending
  /// pair-id ranges and each appends in ascending pair-id order. A window
  /// with at most one non-empty part takes that part's buffer instead of
  /// copying it.
  std::vector<Edge> AssembleWindow(int64_t b) {
    size_t total = 0;
    std::vector<Edge>* only = nullptr;
    int parts = 0;
    for (std::vector<std::vector<Edge>>& row : rows_) {
      std::vector<Edge>& part = row[static_cast<size_t>(b)];
      if (!part.empty()) {
        total += part.size();
        only = &part;
        ++parts;
      }
    }
    if (parts <= 1) {
      return only != nullptr ? std::move(*only) : std::vector<Edge>();
    }
    std::vector<Edge> window;
    window.reserve(total);
    for (const std::vector<std::vector<Edge>>& row : rows_) {
      const std::vector<Edge>& part = row[static_cast<size_t>(b)];
      window.insert(window.end(), part.begin(), part.end());
    }
    return window;
  }

 private:
  std::vector<std::vector<std::vector<Edge>>> rows_;
};

}  // namespace dangoron

#endif  // DANGORON_CORR_SWEEP_KERNEL_H_
