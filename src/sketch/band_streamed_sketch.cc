#include "sketch/band_streamed_sketch.h"

#include <algorithm>

#include "common/logging.h"
#include "common/math_utils.h"

namespace dangoron {

namespace {

Status ValidateStream(int64_t num_series, int64_t length,
                      const BandStreamOptions& options) {
  if (num_series <= 0) {
    return Status::InvalidArgument("BandStreamedSketch: empty matrix");
  }
  if (options.basic_window <= 0) {
    return Status::InvalidArgument(
        "BandStreamedSketch: basic_window must be > 0");
  }
  const int64_t nb = length / options.basic_window;
  if (options.last_slot < 1 || options.last_slot > nb) {
    return Status::OutOfRange("BandStreamedSketch: last slot ",
                              options.last_slot, " outside the ", nb,
                              " indexed basic windows");
  }
  if (options.band_slots < 1) {
    return Status::InvalidArgument("BandStreamedSketch: band_slots must be > 0");
  }
  const int64_t num_pairs = num_series * (num_series - 1) / 2;
  if (options.pair_begin < 0 || options.pair_begin > options.pair_end ||
      options.pair_end > num_pairs) {
    return Status::InvalidArgument("BandStreamedSketch: pair range [",
                                   options.pair_begin, ", ", options.pair_end,
                                   ") outside [0, ", num_pairs, ")");
  }
  return Status::Ok();
}

// The windows a stream folds: through the batch holding `last_slot`'s
// window, so batch shapes match the full build's (a ragged batch only at
// the end of the data).
int64_t FoldedWindows(int64_t nb, int64_t last_slot) {
  return std::min(nb, RoundUp8(last_slot));
}

// One band's slots plus the batch being written, capped at the full row.
int64_t RingSlots(int64_t nb, int64_t band_slots) {
  return std::min(FullPairRowStride(nb), RoundUp8(band_slots + kPairWinBatch));
}

// Windows of panels a stream holds at a time.
int64_t PanelWindows(int64_t folded) {
  return std::min(folded, kStreamPanelWindows);
}

}  // namespace

Result<BandStreamedSketch> BandStreamedSketch::Create(
    const TimeSeriesMatrix& data, const BandStreamOptions& options,
    ThreadPool* pool) {
  RETURN_IF_ERROR(ValidateStream(data.num_series(), data.length(), options));
  BandStreamedSketch stream;
  stream.options_ = options;
  stream.data_ = &data;
  const int64_t nb = data.length() / options.basic_window;
  const int64_t folded = FoldedWindows(nb, options.last_slot);
  // Only the statistics up front (and the NaN check over the whole
  // matrix); AdvanceTo normalizes the panels a chunk at a time.
  ASSIGN_OR_RETURN(stream.panels_, ComputePanelStats(data, options.basic_window,
                                                    folded, pool));
  stream.panels_.panel_windows = PanelWindows(folded);
  // The blocked index build's fold: the range moments a streamed query
  // hoists round exactly like a resident index's.
  stream.series_ = SeriesPrefixes::FromPanels(stream.panels_, pool);
  stream.tiles_ = MakeTilePairs(data.num_series(), options.pair_begin,
                                options.pair_end, /*with_omc=*/false);
  stream.ring_slots_ = RingSlots(nb, options.band_slots);
  stream.row_width_ =
      SlotRowColumns(data.num_series(), options.pair_begin, options.pair_end,
                     &stream.series_col_);
  // One recycled block: the ring slab, then the panel chunk (64-byte
  // aligned: row_width_ is a multiple of 8). A cold query's working set
  // then reuses warm pages instead of faulting in a fresh chunk.
  const int64_t slab = stream.row_width_ * stream.ring_slots_;
  stream.storage_ =
      SketchBlock(static_cast<size_t>(slab + stream.panels_.PanelDoubles()));
  stream.panels_.values = stream.storage_.data() + slab;
  // Slot 0 (all zeros) is ring row 0.
  std::fill_n(stream.storage_.data(), stream.row_width_, 0.0);
  return stream;
}

int64_t BandStreamedSketch::EstimateMemoryBytes(
    int64_t num_series, int64_t length, const BandStreamOptions& options) {
  if (!ValidateStream(num_series, length, options).ok()) {
    return 0;
  }
  const int64_t nb = length / options.basic_window;
  const int64_t folded = FoldedWindows(nb, options.last_slot);
  const int64_t num_tiles = CeilDiv(num_series, kCorrTile);
  int64_t tile_pairs = 0;
  for (int64_t ti = 0; ti < num_tiles; ++ti) {
    for (int64_t tj = ti; tj < num_tiles; ++tj) {
      tile_pairs += TilePairOwns(num_series, ti, tj, options.pair_begin,
                                 options.pair_end)
                        ? 1
                        : 0;
    }
  }
  std::vector<int64_t> series_col;
  const int64_t row_width = SlotRowColumns(num_series, options.pair_begin,
                                           options.pair_end, &series_col);
  const int64_t doubles =
      PanelWindows(folded) * num_tiles * options.basic_window *
          kCorrTile                                     // panels
      + 3 * folded * num_series                         // window stats
      + 2 * num_series * (folded + 1)                   // series prefixes
      + tile_pairs * kCorrTile * kCorrTile              // accumulators
      + row_width * RingSlots(nb, options.band_slots);  // ring slab
  return doubles * static_cast<int64_t>(sizeof(double));
}

int64_t BandStreamedSketch::MemoryBytes() const {
  size_t doubles = storage_.size() + panels_.mean.size() +
                   panels_.stddev.size() + panels_.scale.size();
  for (const TilePairState& tile : tiles_) {
    doubles += tile.acc_dot.size() + tile.acc_omc.size();
  }
  return series_.MemoryBytes() +
         static_cast<int64_t>(doubles * sizeof(double));
}

void BandStreamedSketch::AdvanceTo(int64_t slot, ThreadPool* pool) {
  DCHECK_LE(slot, options_.last_slot);
  const int64_t w_end = std::min(panels_.num_windows, RoundUp8(slot));
  const SlotPrefixRing out{storage_.data(),     ring_slots_,
                           row_width_,          series_col_.data(),
                           options_.pair_begin, options_.pair_end};
  while (windows_folded_ < w_end) {
    // Panels hold [first_window, filled_end_): refill from the next
    // window to fold once they run out. Chunks start on the batch grid,
    // so each fold below ends on it too.
    if (windows_folded_ == filled_end_) {
      filled_end_ = std::min(panels_.num_windows,
                             windows_folded_ + panels_.panel_windows);
      FillPanels(*data_, windows_folded_, filled_end_, &panels_, pool);
    }
    const int64_t fold_end = std::min(w_end, filled_end_);
    ForEachTask(pool, static_cast<int64_t>(tiles_.size()), [&](int64_t t) {
      AdvanceTilePair(panels_, fold_end, &tiles_[static_cast<size_t>(t)],
                      out);
    });
    windows_folded_ = fold_end;
  }
}

}  // namespace dangoron
