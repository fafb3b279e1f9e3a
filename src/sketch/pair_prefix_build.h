#ifndef DANGORON_SKETCH_PAIR_PREFIX_BUILD_H_
#define DANGORON_SKETCH_PAIR_PREFIX_BUILD_H_

// The blocked pair-prefix build shared by sketch/'s two producers of
// dot-prefix slots: BasicWindowIndex::Build (the whole block, plus the Eq. 2
// budget) and BandStreamedSketch (a per-query ring slab, dot only). Both run
// the same per-tile-pair batch fold below, so their slots are bit-identical
// by construction.

#include <cstddef>
#include <cstdint>
#include <functional>
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

/// Row length (doubles) of a full pair-prefix block over `nb` basic
/// windows: the nb + 1 slots plus the pad, rounded up to 8.
inline int64_t FullPairRowStride(int64_t nb) {
  return (nb + 1 + kPairRowPad + 7) / 8 * 8;
}

/// Where a tile pair's prefix slots land: slot s of pair p goes to
/// `dot[(p - first_pair) * ring_slots + (s + kPairRowPad) % ring_slots]`,
/// and to the same cell of `omc` (the Eq. 2 budget) when it is non-null.
/// A full block is the ring whose length is the whole row stride (it never
/// wraps). Pairs outside [first_pair, end_pair) are folded — their
/// accumulators advance — but never stored.
struct PairPrefixRing {
  double* dot = nullptr;
  double* omc = nullptr;
  int64_t ring_slots = 0;
  int64_t first_pair = 0;
  int64_t end_pair = 0;
};

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

/// Writes prefix slot 0 (= 0) of every stored pair `state` owns.
void WriteTilePairSlotZero(int64_t num_series, const TilePairState& state,
                           const PairPrefixRing& out);

/// Folds basic windows [state->windows_folded, w_end) of `panels` into the
/// tile pair's accumulators and writes their slots to `out`, in the
/// global batches [0, 8), [8, 16), ... (the last one ragged at
/// panels.num_windows). `w_end` must end a batch: a multiple of 8 or
/// panels.num_windows. Every slot takes the flush path its batch shape
/// selects — the 8-pair vector path for full batches, the scalar path for
/// ragged ones and pair tails — whatever the caller's stopping points, so
/// a build advanced in steps is bit-identical to one run straight
/// through. Non-temporal stores; fenced before returning.
void AdvanceTilePair(const NormalizedPanels& panels, int64_t w_end,
                     TilePairState* state, const PairPrefixRing& out);

/// Runs `body(t)` for t in [0, count), across `pool` when it has more than
/// one thread.
void ForEachTask(ThreadPool* pool, int64_t count,
                 const std::function<void(int64_t)>& body);

}  // namespace dangoron

#endif  // DANGORON_SKETCH_PAIR_PREFIX_BUILD_H_
