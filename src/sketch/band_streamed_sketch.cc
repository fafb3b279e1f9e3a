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

}  // namespace

Result<BandStreamedSketch> BandStreamedSketch::Create(
    const TimeSeriesMatrix& data, const BandStreamOptions& options,
    ThreadPool* pool) {
  RETURN_IF_ERROR(ValidateStream(data.num_series(), data.length(), options));
  if (data.CountMissing() > 0) {
    return Status::FailedPrecondition(
        "BandStreamedSketch: data contains missing values; run "
        "InterpolateMissing first");
  }
  BandStreamedSketch stream;
  stream.options_ = options;
  stream.num_series_ = data.num_series();
  stream.length_ = data.length();
  const int64_t nb = data.length() / options.basic_window;
  const int64_t folded = FoldedWindows(nb, options.last_slot);
  stream.panels_ =
      BuildNormalizedPanels(data, options.basic_window, pool, folded);
  // The blocked index build's fold: the range moments a streamed query
  // hoists round exactly like a resident index's.
  stream.series_ = SeriesPrefixes::FromPanels(stream.panels_, pool);
  stream.tiles_ = MakeTilePairs(stream.num_series_, options.pair_begin,
                                options.pair_end, /*with_omc=*/false);
  stream.ring_slots_ = RingSlots(nb, options.band_slots);
  stream.row_width_ =
      SlotRowColumns(stream.num_series_, options.pair_begin, options.pair_end,
                     &stream.series_col_);
  stream.ring_ =
      SketchBlock(static_cast<size_t>(stream.row_width_ * stream.ring_slots_));
  // Slot 0 (all zeros) is ring row 0.
  std::fill_n(stream.ring_.data(), stream.row_width_, 0.0);
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
      folded * num_tiles * options.basic_window * kCorrTile  // panels
      + 2 * folded * num_series                          // window means, std-devs
      + 2 * num_series * (folded + 1)                    // series prefixes
      + tile_pairs * kCorrTile * kCorrTile               // accumulators
      + row_width * RingSlots(nb, options.band_slots);  // ring slab
  return doubles * static_cast<int64_t>(sizeof(double));
}

int64_t BandStreamedSketch::MemoryBytes() const {
  size_t doubles = panels_.values.size() + panels_.mean.size() +
                   panels_.stddev.size() + ring_.size();
  for (const TilePairState& tile : tiles_) {
    doubles += tile.acc_dot.size() + tile.acc_omc.size();
  }
  return series_.MemoryBytes() +
         static_cast<int64_t>(doubles * sizeof(double));
}

void BandStreamedSketch::AdvanceTo(int64_t slot, ThreadPool* pool) {
  DCHECK_LE(slot, options_.last_slot);
  const int64_t w_end = std::min(panels_.num_windows, RoundUp8(slot));
  if (w_end <= windows_folded_) {
    return;
  }
  const SlotPrefixRing out{ring_.data(),        ring_slots_,
                           row_width_,          series_col_.data(),
                           options_.pair_begin, options_.pair_end};
  ForEachTask(pool, static_cast<int64_t>(tiles_.size()), [&](int64_t t) {
    AdvanceTilePair(panels_, w_end, &tiles_[static_cast<size_t>(t)], out);
  });
  windows_folded_ = w_end;
}

}  // namespace dangoron
