#include "sketch/pair_prefix_build.h"

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/logging.h"
#include "common/math_utils.h"
#include "corr/pearson.h"
#include "sketch/basic_window_index.h"

namespace dangoron {

namespace {

// Pair ids [first, last] that row i owns in column tile tj, or false when
// the row owns none there (the diagonal tile's last row).
bool TileRowPairs(int64_t num_series, int64_t tj, int64_t i, int64_t* first,
                  int64_t* last) {
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

// Doubles of one staged slot row: a tile row's kCorrTile columns after a
// head of up to 7 that aligns them with the slot row's cache lines.
constexpr int64_t kStageWidth = kCorrTile + 8;

// Writes the staged slots of one series row to the batch's `wc` slot rows:
// stage[k][(slot_col & 7) + u] holds slot k's value of the row's pair u,
// which belongs at column slot_col + u, and pairs u in [u_begin, u_end)
// are stored. Every line holding a stored pair leaves whole, as one
// non-temporal store: the row's segment owns its lines (SlotRowColumns),
// so their other lanes are padding or unstored pairs no reader asks for.
void FlushStagedRow(const double (*stage)[kStageWidth], int64_t wc,
                    double* const* slot_rows, int64_t slot_col,
                    int64_t u_begin, int64_t u_end) {
  if (u_begin >= u_end) {
    return;  // the stored range skips this row
  }
  const int64_t head = slot_col & 7;
  for (int64_t line = (head + u_begin) & ~int64_t{7}; line < head + u_end;
       line += 8) {
    const int64_t col = slot_col - head + line;
    for (int64_t k = 0; k < wc; ++k) {
      StreamVec8(slot_rows[k] + col, LoadVec8(stage[k] + line));
    }
  }
}

// The batch fold of one tile pair into `Out`: PairPrefixRows (the
// resident index, which also carries the Eq. 2 budget prefix) or
// SlotPrefixRing (a band stream, dot only). See AdvanceTilePair.
template <typename Out>
void AdvanceTilePairImpl(const NormalizedPanels& panels, int64_t w_end,
                         TilePairState* state, const Out& out) {
  constexpr bool kPairRows = std::is_same_v<Out, PairPrefixRows>;
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
  double* acc_omc = kPairRows ? state->acc_omc.data() : nullptr;

  // For each basic window, the tile pair's block of the N x N correlation
  // tile is the Gram matrix of the window's z panels — a blocked rank-b
  // update. Windows are processed in batches of kPairWinBatch: the batch's
  // Gram planes are computed first (window-major staging, plane k holding
  // window wb + k's tile, read by the flush as parallel sequential
  // streams), then each 8-pair group's batch of prefix slots leaves as
  // whole cache lines: through an in-register 8x8 transpose into the
  // group's pair rows, or straight into the batch's slot rows.
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
  // The slot ring's row of each slot of the batch, and the staging of one
  // series row's slots (see FlushStagedRow; zeroed once so the padding
  // lanes it writes are never indeterminate).
  double* slot_rows[kPairWinBatch] = {};
  alignas(64) double stage[kPairWinBatch][kStageWidth] = {};

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
      if constexpr (!kPairRows) {
        slot_rows[k] = out.slab + (w + 1) % out.ring_slots * out.row_width;
      }
    }

    // Flush: fold the batch into each pair's running prefixes and write
    // the wc slots [wb + 1, wb + wc] of each stored pair. The raw inner
    // product the sketch stores is reconstructed as
    // sum x*y = b * (sd_x sd_y c + mean_x mean_y) — algebraically exact;
    // the clamped correlation feeds the Eq. 2 jump budget.
    //
    // Vectorized over 8 adjacent pairs (contiguous in the Gram planes, the
    // accumulators, and the column stats): the k recursion is a serial
    // dependence per pair, so running it 8 pairs wide is what hides its
    // latency. Pair rows take the per-window Vec8 snapshots transposed in
    // registers, so each pair's 8-slot run (ring column `col`, a multiple
    // of 8) leaves as one full-line store. Slot rows take each snapshot as
    // it is, with no transpose: window k's 8 values of the group belong in
    // slot row k, side by side. A scalar loop finishes ragged pair tails
    // and ragged final batches.
    const int64_t col = kPairRows ? wb + 1 + kPairRowPad : 0;
    for (int64_t i = row_begin; i < row_end; ++i) {
      int64_t p0 = 0;
      int64_t p_last = 0;
      if (!TileRowPairs(n, tj, i, &p0, &p_last)) {
        continue;
      }
      const int64_t j0 = std::max(col_begin, i + 1);
      const int64_t njs = col_end - j0;
      const double* rbsd = row_bsd + (i - row_begin) * kPairWinBatch;
      const double* rbm = row_bm + (i - row_begin) * kPairWinBatch;
      const size_t idx0 = static_cast<size_t>((i - row_begin) * kCorrTile +
                                              (j0 - col_begin));
      // Slot rows: where column u of the row (pair j0 + u) goes for each
      // slot of the batch. A row off the diagonal tile, of whole 8-pair
      // groups, all stored, starts its groups on cache lines (j0 =
      // col_begin is a multiple of 8), so each group's snapshots stream
      // straight into the slot rows. Any other row (the diagonal tile's,
      // whose groups start at j = i + 1, one with a scalar tail, or one the
      // stored range cuts) is staged and leaves as whole lines afterwards
      // (FlushStagedRow).
      int64_t slot_col = 0;
      bool direct = true;
      double* row_out[kPairWinBatch] = {};
      if constexpr (!kPairRows) {
        slot_col = out.series_col[i] + j0;
        direct = tj != ti && njs % 8 == 0 && p0 >= out.first_pair &&
                 p_last < out.end_pair;
        for (int64_t k = 0; k < wc; ++k) {
          row_out[k] = direct ? slot_rows[k] + slot_col
                              : stage[k] + (slot_col & 7);
        }
      }
      int64_t u = 0;
      if (wc == kPairWinBatch) {
        const Vec8 kOne = SplatVec8(1.0);
        const Vec8 kNegOne = SplatVec8(-1.0);
        for (; u + 8 <= njs; u += 8) {
          const size_t idx = idx0 + static_cast<size_t>(u);
          Vec8 dacc = LoadVec8(acc_dot + idx);
          Vec8 oacc;
          if constexpr (kPairRows) {
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
            if constexpr (kPairRows) {
              const Vec8 hi = raw > kOne ? kOne : raw;
              const Vec8 clamped = hi < kNegOne ? kNegOne : hi;
              oacc += kOne - clamped;
              osnap[k] = oacc;
            }
          }
          StoreVec8(acc_dot + idx, dacc);
          if constexpr (kPairRows) {
            StoreVec8(acc_omc + idx, oacc);
            Transpose8x8(dsnap);
            Transpose8x8(osnap);
            for (int64_t v = 0; v < 8; ++v) {
              const int64_t cell = (p0 + u + v) * out.row_stride + col;
              StreamVec8(out.dot + cell, dsnap[v]);
              StreamVec8(out.omc + cell, osnap[v]);
            }
          } else if (direct) {
            for (int64_t k = 0; k < kPairWinBatch; ++k) {
              StreamVec8(row_out[k] + u, dsnap[k]);
            }
          } else {
            for (int64_t k = 0; k < kPairWinBatch; ++k) {
              StoreVec8(row_out[k] + u, dsnap[k]);
            }
          }
        }
      }
      for (; u < njs; ++u) {
        const size_t idx = idx0 + static_cast<size_t>(u);
        const double* g = gram_batch.data() + idx;
        const double* csd = col_sd + (j0 - col_begin) + u;
        const double* cm = col_m + (j0 - col_begin) + u;
        int64_t cell = u;
        if constexpr (kPairRows) {
          cell = (p0 + u) * out.row_stride + col;
        }
        double dacc = acc_dot[idx];
        double oacc = kPairRows ? acc_omc[idx] : 0.0;
        for (int64_t k = 0; k < wc; ++k) {
          const double raw = g[k * plane];
          dacc +=
              rbsd[k] * csd[k * kCorrTile] * raw + rbm[k] * cm[k * kCorrTile];
          if constexpr (kPairRows) {
            out.dot[cell + k] = dacc;
            oacc += 1.0 - ClampCorrelation(raw);
            out.omc[cell + k] = oacc;
          } else {
            row_out[k][cell] = dacc;
          }
        }
        acc_dot[idx] = dacc;
        if constexpr (kPairRows) {
          acc_omc[idx] = oacc;
        }
      }
      if constexpr (!kPairRows) {
        if (!direct) {
          FlushStagedRow(stage, wc, slot_rows, slot_col,
                         std::max<int64_t>(0, out.first_pair - p0),
                         std::min(njs, out.end_pair - p0));
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
    if (TileRowPairs(num_series, tj, i, &first, &last) &&
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

int64_t SlotRowColumns(int64_t num_series, int64_t pair_begin,
                       int64_t pair_end, std::vector<int64_t>* series_col) {
  series_col->assign(static_cast<size_t>(num_series), 0);
  if (pair_begin >= pair_end) {
    return 0;
  }
  // Series i's segment holds columns off_i + j for j in (i, N), off_i a
  // multiple of 8. The next segment's first line, which starts at
  // off_{i+1} + rounddown8(i + 2), lies past this one's last column.
  int64_t off = 0;
  for (int64_t i = 0; i < num_series; ++i) {
    (*series_col)[static_cast<size_t>(i)] = off;
    off += RoundUp8(std::max<int64_t>(0, num_series - (i + 2) / 8 * 8));
  }
  int64_t i_first = 0;
  int64_t j_first = 0;
  int64_t i_last = 0;
  int64_t j_last = 0;
  BasicWindowIndex::PairFromId(pair_begin, num_series, &i_first, &j_first);
  BasicWindowIndex::PairFromId(pair_end - 1, num_series, &i_last, &j_last);
  const int64_t base =
      (*series_col)[static_cast<size_t>(i_first)] + j_first / 8 * 8;
  for (int64_t& c : *series_col) {
    c -= base;
  }
  return RoundUp8((*series_col)[static_cast<size_t>(i_last)] + j_last + 1);
}

void WriteTilePairSlotZero(int64_t num_series, const TilePairState& state,
                           const PairPrefixRows& out) {
  const int64_t row_end = std::min(num_series, (state.ti + 1) * kCorrTile);
  for (int64_t i = state.ti * kCorrTile; i < row_end; ++i) {
    int64_t first = 0;
    int64_t last = 0;
    if (!TileRowPairs(num_series, state.tj, i, &first, &last)) {
      continue;
    }
    for (int64_t p = first; p <= last; ++p) {
      const int64_t cell = p * out.row_stride + kPairRowPad;
      out.dot[cell] = 0.0;
      out.omc[cell] = 0.0;
    }
  }
}

void AdvanceTilePair(const NormalizedPanels& panels, int64_t w_end,
                     TilePairState* state, const PairPrefixRows& out) {
  DCHECK(w_end % kPairWinBatch == 0 || w_end == panels.num_windows);
  DCHECK_GE(state->windows_folded, panels.first_window);
  DCHECK_LE(w_end, std::min(panels.num_windows,
                            panels.first_window + panels.panel_windows));
  DCHECK_EQ(out.row_stride % 8, 0);
  AdvanceTilePairImpl(panels, w_end, state, out);
}

void AdvanceTilePair(const NormalizedPanels& panels, int64_t w_end,
                     TilePairState* state, const SlotPrefixRing& out) {
  DCHECK(w_end % kPairWinBatch == 0 || w_end == panels.num_windows);
  DCHECK_GE(state->windows_folded, panels.first_window);
  DCHECK_LE(w_end, std::min(panels.num_windows,
                            panels.first_window + panels.panel_windows));
  DCHECK_EQ(out.row_width % 8, 0);
  AdvanceTilePairImpl(panels, w_end, state, out);
}

}  // namespace dangoron
