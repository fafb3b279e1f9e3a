#ifndef DANGORON_SKETCH_BAND_STREAMED_SKETCH_H_
#define DANGORON_SKETCH_BAND_STREAMED_SKETCH_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "corr/block_kernel.h"
#include "corr/sweep_kernel.h"
#include "sketch/basic_window_index.h"
#include "sketch/pair_prefix_build.h"
#include "ts/time_series_matrix.h"

namespace dangoron {

/// What one band-streamed exact query reads: the geometry that sizes its
/// ring and bounds its build.
struct BandStreamOptions {
  int64_t basic_window = 24;
  /// Prefix slots one sweep band reads, first through last: (band − 1)·m +
  /// ns + 1 for a band of `band` windows of ns basic windows stepping m.
  int64_t band_slots = 1;
  /// Highest prefix slot the query reads (its last window's end).
  int64_t last_slot = 1;
  /// Pair ids whose slots are kept: a shard's [pair_begin, pair_end).
  int64_t pair_begin = 0;
  int64_t pair_end = 0;
};

/// Windows of normalized panels a BandStreamedSketch holds at a time: two
/// fold batches, 0.9 MB at N = 256 and basic_window = 24, so the chunk
/// AdvanceTo fills is still in L2 when the fold reads it.
inline constexpr int64_t kStreamPanelWindows = 16;
static_assert(kStreamPanelWindows % kPairWinBatch == 0,
              "a panel chunk holds whole fold batches");

/// The dot-prefix half of a BasicWindowIndex, produced band by band for
/// one exact query instead of materialized whole (TSUBASA's real-time mode
/// keeps basic-window statistics only for the live window; this keeps the
/// live band's). It borrows `data`, which must outlive it, like a
/// BasicWindowIndex. It holds every folded window's statistics, a rolling
/// chunk of kStreamPanelWindows windows of NormalizedPanels, the
/// per-series prefixes, one running dot accumulator block per series-tile
/// pair, and a slot-major *ring slab* of R slot rows:
///
///   R = roundup8(band_slots + 8), capped at the full row stride,
///
/// so one band's slots plus the 8-slot batch the build advances in always
/// fit. Prefix slot s of stored pair (i, j) sits in ring row s mod R, at
/// column series_col[i] + j of that row (Slots(); SlotRowColumns lays the
/// columns out over [pair_begin, pair_end): column ≡ j mod 8, and each
/// series' segment owns its cache lines). The sweep reads a window's lo and
/// hi slots of 8 adjacent pairs as two contiguous vector loads, and the
/// build writes every slot-row line whole, as a non-temporal store.
/// AdvanceTo(slot) normalizes the next chunk of windows into the panels
/// whenever the fold has used up the last one, and folds whole 8-window
/// batches — on the full build's global batch grid, from window 0 — until
/// `slot` is written, overwriting the ring's oldest rows; the fold is the
/// full build's own (AdvanceTilePair), so every slot is bit-identical to
/// the resident index's. The Eq. 2 budget is never computed: only exact
/// sweeps read a stream.
///
/// At N = 256 over a year (365 windows of 24 steps, 30-window queries
/// sliding by one) R = 56: the slab's rows are 33,536 doubles for 32,640
/// pairs, 15.0 MB against the index's 2 x 95 MB. With the 0.9 MB panel
/// chunk, 2.2 MB of window statistics and 1.5 MB of series prefixes the
/// stream holds 20.0 MB. The slab and the panel chunk share one
/// SketchBlock, recycled across queries. Not thread-safe: AdvanceTo must
/// not race a reader.
class BandStreamedSketch {
 public:
  /// Computes the window statistics and series prefixes and writes slot 0;
  /// no panel is normalized yet. Fails like BasicWindowIndex::Build on
  /// empty, short or NaN-bearing data (a NaN anywhere in `data`, past
  /// `last_slot` too), and with OutOfRange when `last_slot` lies past the
  /// indexed basic windows.
  static Result<BandStreamedSketch> Create(const TimeSeriesMatrix& data,
                                           const BandStreamOptions& options,
                                           ThreadPool* pool = nullptr);

  /// Bytes a stream over a `num_series x length` matrix with `options`
  /// holds, without building it — the serving layer's transient admission
  /// reservation. Matches MemoryBytes() of the created stream exactly.
  static int64_t EstimateMemoryBytes(int64_t num_series, int64_t length,
                                     const BandStreamOptions& options);
  /// Panel chunk, window statistics, series prefixes, accumulators and
  /// ring slab (not the borrowed matrix).
  int64_t MemoryBytes() const;

  /// Folds basic windows until prefix slot `slot` is in the ring (no-op
  /// when it already is), normalizing each panel chunk just before its
  /// first batch is folded. Monotone: slots older than oldest_slot() are
  /// gone for good. Parallel over panel windows and tile pairs when a pool
  /// is given; identical slots for any thread count.
  void AdvanceTo(int64_t slot, ThreadPool* pool = nullptr);

  int64_t basic_window() const { return options_.basic_window; }
  int64_t num_series() const { return data_->num_series(); }
  /// Columns of the streamed matrix.
  int64_t length() const { return data_->length(); }
  const BandStreamOptions& options() const { return options_; }

  /// Valid for slots [0, options().last_slot].
  const SeriesPrefixes& series_prefixes() const { return series_; }

  /// The slab; slots [oldest_slot(), newest_slot()] of the stored pairs
  /// are readable.
  SlotRingView Slots() const {
    return SlotRingView{storage_.data(), ring_slots_, row_width_,
                        series_col_.data()};
  }
  int64_t newest_slot() const { return windows_folded_; }
  int64_t oldest_slot() const {
    return windows_folded_ >= ring_slots_ ? windows_folded_ - ring_slots_ + 1
                                          : 0;
  }

 private:
  BandStreamedSketch() = default;

  BandStreamOptions options_;
  const TimeSeriesMatrix* data_ = nullptr;
  NormalizedPanels panels_;  // windows [first_window, filled_end_)
  int64_t filled_end_ = 0;
  SeriesPrefixes series_;
  std::vector<TilePairState> tiles_;
  SketchBlock storage_;  // the ring slab, then the panel chunk
  int64_t ring_slots_ = 0;
  int64_t row_width_ = 0;
  std::vector<int64_t> series_col_;  // see SlotRowColumns
  int64_t windows_folded_ = 0;
};

}  // namespace dangoron

#endif  // DANGORON_SKETCH_BAND_STREAMED_SKETCH_H_
