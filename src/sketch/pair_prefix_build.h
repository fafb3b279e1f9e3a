#ifndef DANGORON_SKETCH_PAIR_PREFIX_BUILD_H_
#define DANGORON_SKETCH_PAIR_PREFIX_BUILD_H_

// The blocked pair-prefix build shared by sketch/'s two producers of
// dot-prefix slots: BasicWindowIndex::Build (pair-major rows, plus the
// Eq. 2 budget) and BandStreamedSketch (a per-query slot-major ring, dot
// only). Both run the same per-tile-pair batch fold below, so their slots
// are bit-identical by construction.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/sketch_block.h"
#include "common/thread_pool.h"
#include "corr/block_kernel.h"
#include "ts/time_series_matrix.h"

namespace dangoron {

/// Leading slack doubles of a pair row: slot s sits at column
/// s + kPairRowPad, so with a 64-byte-aligned base and an 8-multiple row
/// length every batch of slots [8k + 1, 8k + 8] fills one aligned cache
/// line — eligible for non-temporal stores.
inline constexpr int64_t kPairRowPad = 7;

/// Basic windows folded per flush: one cache line of slots per pair.
inline constexpr int64_t kPairWinBatch = 8;

/// `x` rounded up to a multiple of 8: a whole number of cache lines of
/// doubles.
inline int64_t RoundUp8(int64_t x) { return (x + 7) / 8 * 8; }

/// Row length (doubles) of a full pair-prefix block over `nb` basic
/// windows: the nb + 1 slots plus the pad, rounded up to 8.
inline int64_t FullPairRowStride(int64_t nb) {
  return RoundUp8(nb + 1 + kPairRowPad);
}

/// Where the resident index's prefix slots land: pair-major rows of
/// `row_stride` doubles (FullPairRowStride), slot s of pair p at
/// `dot[p * row_stride + s + kPairRowPad]` and at the same cell of `omc`
/// (the Eq. 2 budget). Every pair is stored.
struct PairPrefixRows {
  double* dot = nullptr;
  double* omc = nullptr;
  int64_t row_stride = 0;
};

/// Where a band stream's prefix slots land: a slot-major ring of
/// `ring_slots` rows of `row_width` doubles, slot s of pair (i, j) at
/// `slab[(s mod ring_slots) * row_width + series_col[i] + j]` (see
/// SlotRowColumns). Pairs outside [first_pair, end_pair) are folded — their
/// accumulators advance — but never stored.
struct SlotPrefixRing {
  double* slab = nullptr;
  int64_t ring_slots = 0;
  int64_t row_width = 0;
  const int64_t* series_col = nullptr;
  int64_t first_pair = 0;
  int64_t end_pair = 0;
};

/// Lays out one slot row over the stored pairs [pair_begin, pair_end) of
/// an N-series sketch: fills `series_col` (N entries) so that pair (i, j)
/// sits at column series_col[i] + j, and returns the row width (a multiple
/// of 8). series_col[i] is a multiple of 8, so every column is ≡ j (mod 8)
/// and in 64-byte-aligned rows the 8 pairs (i, 8a) … (i, 8a + 7) fill one
/// cache line. Each series' segment owns the lines it touches: no other
/// series' pair shares one, so a writer may store a segment's lines whole.
/// The padding is under 16 doubles per series (none beyond the line
/// rounding when N is a multiple of 8).
int64_t SlotRowColumns(int64_t num_series, int64_t pair_begin,
                       int64_t pair_end, std::vector<int64_t>* series_col);

/// The running state of one series-tile pair (ti <= tj) of the blocked
/// build: the prefix-so-far of every pair the tile pair owns, after the
/// first `windows_folded` basic windows.
struct TilePairState {
  int64_t ti = 0;
  int64_t tj = 0;
  int64_t windows_folded = 0;
  std::vector<double> acc_dot;  // kCorrTile x kCorrTile
  std::vector<double> acc_omc;  // same; empty when the budget is not built
};

/// Whether series-tile pair (ti, tj) owns a pair id in [pair_begin,
/// pair_end) — the build work a shard's pair range needs.
bool TilePairOwns(int64_t num_series, int64_t ti, int64_t tj,
                  int64_t pair_begin, int64_t pair_end);

/// The tile pairs of an N-series build that own at least one pair id in
/// [pair_begin, pair_end), with zeroed accumulators (OMC ones only when
/// `with_omc`).
std::vector<TilePairState> MakeTilePairs(int64_t num_series, int64_t pair_begin,
                                         int64_t pair_end, bool with_omc);

/// Writes prefix slot 0 (= 0) of every pair `state` owns.
void WriteTilePairSlotZero(int64_t num_series, const TilePairState& state,
                           const PairPrefixRows& out);

/// Folds basic windows [state->windows_folded, w_end) of `panels` into the
/// tile pair's accumulators and writes their slots to `out`, in the
/// global batches [0, 8), [8, 16), ... (the last one ragged at
/// panels.num_windows). `w_end` must end a batch: a multiple of 8 or
/// panels.num_windows, and the panels must hold every window folded.
/// Every slot takes the flush path its batch shape
/// selects — the 8-pair vector path for full batches, the scalar path for
/// ragged ones and pair tails — whatever the caller's stopping points or
/// target, so a build advanced in steps into a slot ring is bit-identical
/// to one run straight through into pair rows. Full cache lines leave as
/// non-temporal stores; fenced before returning.
void AdvanceTilePair(const NormalizedPanels& panels, int64_t w_end,
                     TilePairState* state, const PairPrefixRows& out);
void AdvanceTilePair(const NormalizedPanels& panels, int64_t w_end,
                     TilePairState* state, const SlotPrefixRing& out);

}  // namespace dangoron

#endif  // DANGORON_SKETCH_PAIR_PREFIX_BUILD_H_
