#include "sketch/pair_prefix_build.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/math_utils.h"
#include "corr/pearson.h"
#include "sketch/basic_window_index.h"

namespace dangoron {

namespace {

// Pair ids [first, last] that row i of tile pair (ti, tj) owns, or false
// when the row owns none (the diagonal tile's last row).
bool TileRowPairs(int64_t num_series, int64_t ti, int64_t tj, int64_t i,
                  int64_t* first, int64_t* last) {
  const int64_t col_begin = tj * kCorrTile;
  const int64_t col_end = std::min(num_series, col_begin + kCorrTile);
  const int64_t j0 = std::max(col_begin, i + 1);
  if (j0 >= col_end) {
    return false;
  }
  *first = BasicWindowIndex::PairId(i, j0, num_series);
  *last = *first + (col_end - j0) - 1;
  return true;
}

// The batch fold of one tile pair, `kWithOmc` selecting whether the Eq. 2
// budget prefix is carried too. See AdvanceTilePair.
template <bool kWithOmc>
void AdvanceTilePairImpl(const NormalizedPanels& panels, int64_t w_end,
                         TilePairState* state, const PairPrefixRing& out) {
  const int64_t nb = panels.num_windows;
  const int64_t b = panels.basic_window;
  const int64_t n = panels.num_series;
  const int64_t ti = state->ti;
  const int64_t tj = state->tj;
  const int64_t row_begin = ti * kCorrTile;
  const int64_t row_end = std::min(n, row_begin + kCorrTile);
  const int64_t col_begin = tj * kCorrTile;
  const int64_t col_end = std::min(n, col_begin + kCorrTile);
  const int64_t nrows = row_end - row_begin;
  const double bw = static_cast<double>(b);
  double* acc_dot = state->acc_dot.data();
  double* acc_omc = kWithOmc ? state->acc_omc.data() : nullptr;
  const int64_t ring = out.ring_slots;
  auto stored = [&](int64_t p) {
    return p >= out.first_pair && p < out.end_pair;
  };

  // For each basic window, the tile pair's block of the N x N correlation
  // tile is the Gram matrix of the window's z panels — a blocked rank-b
  // update. Windows are processed in batches of kPairWinBatch: the batch's
  // Gram planes are computed first (window-major staging, plane k holding
  // window wb + k's tile, read by the flush as parallel sequential
  // streams), then each pair's batch of prefix slots leaves as one
  // contiguous (single cache line) write through an in-register 8x8
  // transpose.
  // The staging buffer is per thread and reused across calls: a streamed
  // build calls this once per tile pair per band, and a fresh zeroed
  // buffer each time would cost more memset than the batch's flush. Every
  // cell the flush reads is overwritten by the batch's GramPanelTile.
  const int64_t plane = nrows * kCorrTile;
  thread_local std::vector<double> gram_batch;
  gram_batch.resize(static_cast<size_t>(kCorrTile * kCorrTile * kPairWinBatch));
  // Per-batch window stats. Row stats are [series-in-tile][k] (read as
  // scalars per output row) and carry the b factor of the reconstruction;
  // column stats are [k][series-in-tile] so the pair-vectorized flush reads
  // them as contiguous vectors.
  double row_bsd[kCorrTile * kPairWinBatch];
  double row_bm[kCorrTile * kPairWinBatch];
  double col_sd[kPairWinBatch * kCorrTile];
  double col_m[kPairWinBatch * kCorrTile];

  for (int64_t wb = state->windows_folded; wb < w_end; wb += kPairWinBatch) {
    const int64_t wc = std::min<int64_t>(kPairWinBatch, nb - wb);
    for (int64_t k = 0; k < wc; ++k) {
      const int64_t w = wb + k;
      GramPanelTile(panels.Panel(w, ti), kCorrTile, nrows,
                    panels.Panel(w, tj), kCorrTile, col_end - col_begin, 0, b,
                    /*upper_only=*/tj == ti,
                    /*diag=*/row_begin - col_begin,
                    gram_batch.data() + k * plane, kCorrTile);
      const double* means = panels.mean.data() + w * n;
      const double* stddevs = panels.stddev.data() + w * n;
      for (int64_t v = 0; v < nrows; ++v) {
        row_bsd[v * kPairWinBatch + k] = bw * stddevs[row_begin + v];
        row_bm[v * kPairWinBatch + k] = bw * means[row_begin + v];
      }
      for (int64_t u = 0; u < col_end - col_begin; ++u) {
        col_sd[k * kCorrTile + u] = stddevs[col_begin + u];
        col_m[k * kCorrTile + u] = means[col_begin + u];
      }
    }

    // Flush: fold the batch into each pair's running prefixes and write
    // the wc slots [wb + 1, wb + wc] of each stored pair in one contiguous
    // run at ring column `col` (a multiple of 8: the run never wraps). The
    // raw inner product the sketch stores is reconstructed as
    // sum x*y = b * (sd_x sd_y c + mean_x mean_y) — algebraically exact;
    // the clamped correlation feeds the Eq. 2 jump budget.
    //
    // Vectorized over 8 adjacent pairs (contiguous in the Gram planes, the
    // accumulators, and the column stats): the k recursion is a serial
    // dependence per pair, so running it 8 pairs wide is what hides its
    // latency. The per-window Vec8 snapshots are transposed in registers so
    // each pair's prefix run leaves as one full-width store; a scalar loop
    // finishes ragged pair tails and ragged final batches.
    const int64_t col = (wb + 1 + kPairRowPad) % ring;
    for (int64_t i = row_begin; i < row_end; ++i) {
      int64_t p0 = 0;
      int64_t p_last = 0;
      if (!TileRowPairs(n, ti, tj, i, &p0, &p_last)) {
        continue;
      }
      const int64_t j0 = std::max(col_begin, i + 1);
      const int64_t njs = col_end - j0;
      const double* rbsd = row_bsd + (i - row_begin) * kPairWinBatch;
      const double* rbm = row_bm + (i - row_begin) * kPairWinBatch;
      const size_t idx0 = static_cast<size_t>((i - row_begin) * kCorrTile +
                                              (j0 - col_begin));
      int64_t u = 0;
      if (wc == kPairWinBatch) {
        const Vec8 kOne = SplatVec8(1.0);
        const Vec8 kNegOne = SplatVec8(-1.0);
        for (; u + 8 <= njs; u += 8) {
          const size_t idx = idx0 + static_cast<size_t>(u);
          Vec8 dacc = LoadVec8(acc_dot + idx);
          Vec8 oacc;
          if constexpr (kWithOmc) {
            oacc = LoadVec8(acc_omc + idx);
          }
          Vec8 dsnap[kPairWinBatch];
          Vec8 osnap[kPairWinBatch];
          const int64_t uc = (j0 - col_begin) + u;
          for (int64_t k = 0; k < kPairWinBatch; ++k) {
            const Vec8 raw = LoadVec8(gram_batch.data() + k * plane + idx);
            dacc += SplatVec8(rbsd[k]) *
                        LoadVec8(col_sd + k * kCorrTile + uc) * raw +
                    SplatVec8(rbm[k]) * LoadVec8(col_m + k * kCorrTile + uc);
            dsnap[k] = dacc;
            if constexpr (kWithOmc) {
              const Vec8 hi = raw > kOne ? kOne : raw;
              const Vec8 clamped = hi < kNegOne ? kNegOne : hi;
              oacc += kOne - clamped;
              osnap[k] = oacc;
            }
          }
          StoreVec8(acc_dot + idx, dacc);
          Transpose8x8(dsnap);
          if constexpr (kWithOmc) {
            StoreVec8(acc_omc + idx, oacc);
            Transpose8x8(osnap);
          }
          for (int64_t v = 0; v < 8; ++v) {
            const int64_t p = p0 + u + v;
            if (!stored(p)) {
              continue;
            }
            const int64_t cell = (p - out.first_pair) * ring + col;
            StreamVec8(out.dot + cell, dsnap[v]);
            if constexpr (kWithOmc) {
              StreamVec8(out.omc + cell, osnap[v]);
            }
          }
        }
      }
      for (; u < njs; ++u) {
        const size_t idx = idx0 + static_cast<size_t>(u);
        const double* g = gram_batch.data() + idx;
        const double* csd = col_sd + (j0 - col_begin) + u;
        const double* cm = col_m + (j0 - col_begin) + u;
        const int64_t p = p0 + u;
        const int64_t cell = (p - out.first_pair) * ring + col;
        double* dot_out = stored(p) ? out.dot + cell : nullptr;
        double dacc = acc_dot[idx];
        double oacc = kWithOmc ? acc_omc[idx] : 0.0;
        for (int64_t k = 0; k < wc; ++k) {
          const double raw = g[k * plane];
          dacc +=
              rbsd[k] * csd[k * kCorrTile] * raw + rbm[k] * cm[k * kCorrTile];
          if (dot_out != nullptr) {
            dot_out[k] = dacc;
          }
          if constexpr (kWithOmc) {
            oacc += 1.0 - ClampCorrelation(raw);
            if (dot_out != nullptr) {
              out.omc[cell + k] = oacc;
            }
          }
        }
        acc_dot[idx] = dacc;
        if constexpr (kWithOmc) {
          acc_omc[idx] = oacc;
        }
      }
    }
  }
  state->windows_folded = std::max(state->windows_folded, w_end);
  // Drain the non-temporal stores before the pool's completion handshake
  // publishes this task's rows to other threads.
  StreamFence();
}

}  // namespace

bool TilePairOwns(int64_t num_series, int64_t ti, int64_t tj,
                  int64_t pair_begin, int64_t pair_end) {
  const int64_t row_end = std::min(num_series, (ti + 1) * kCorrTile);
  for (int64_t i = ti * kCorrTile; i < row_end; ++i) {
    int64_t first = 0;
    int64_t last = 0;
    if (TileRowPairs(num_series, ti, tj, i, &first, &last) &&
        first < pair_end && last >= pair_begin) {
      return true;
    }
  }
  return false;
}

std::vector<TilePairState> MakeTilePairs(int64_t num_series, int64_t pair_begin,
                                         int64_t pair_end, bool with_omc) {
  const int64_t num_tiles = CeilDiv(num_series, kCorrTile);
  std::vector<TilePairState> states;
  for (int64_t ti = 0; ti < num_tiles; ++ti) {
    for (int64_t tj = ti; tj < num_tiles; ++tj) {
      if (!TilePairOwns(num_series, ti, tj, pair_begin, pair_end)) {
        continue;
      }
      TilePairState state;
      state.ti = ti;
      state.tj = tj;
      state.acc_dot.assign(static_cast<size_t>(kCorrTile * kCorrTile), 0.0);
      if (with_omc) {
        state.acc_omc.assign(static_cast<size_t>(kCorrTile * kCorrTile), 0.0);
      }
      states.push_back(std::move(state));
    }
  }
  return states;
}

void WriteTilePairSlotZero(int64_t num_series, const TilePairState& state,
                           const PairPrefixRing& out) {
  const int64_t row_end = std::min(num_series, (state.ti + 1) * kCorrTile);
  const int64_t col = kPairRowPad % out.ring_slots;
  for (int64_t i = state.ti * kCorrTile; i < row_end; ++i) {
    int64_t first = 0;
    int64_t last = 0;
    if (!TileRowPairs(num_series, state.ti, state.tj, i, &first, &last)) {
      continue;
    }
    for (int64_t p = std::max(first, out.first_pair);
         p <= std::min(last, out.end_pair - 1); ++p) {
      const int64_t cell = (p - out.first_pair) * out.ring_slots + col;
      out.dot[cell] = 0.0;
      if (out.omc != nullptr) {
        out.omc[cell] = 0.0;
      }
    }
  }
}

void AdvanceTilePair(const NormalizedPanels& panels, int64_t w_end,
                     TilePairState* state, const PairPrefixRing& out) {
  DCHECK(w_end % kPairWinBatch == 0 || w_end == panels.num_windows);
  DCHECK_LE(w_end, panels.num_windows);
  DCHECK_EQ(out.ring_slots % 8, 0);
  if (out.omc != nullptr) {
    AdvanceTilePairImpl<true>(panels, w_end, state, out);
  } else {
    AdvanceTilePairImpl<false>(panels, w_end, state, out);
  }
}

void ForEachTask(ThreadPool* pool, int64_t count,
                 const std::function<void(int64_t)>& body) {
  if (pool != nullptr && pool->num_threads() > 1 && count > 1) {
    pool->ParallelFor(count, body);
  } else {
    for (int64_t t = 0; t < count; ++t) {
      body(t);
    }
  }
}

}  // namespace dangoron
