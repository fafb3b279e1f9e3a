#include "sketch/basic_window_index.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "common/logging.h"
#include "common/sketch_block.h"
#include "corr/block_kernel.h"
#include "corr/pearson.h"

namespace dangoron {

int64_t BasicWindowIndex::PairId(int64_t i, int64_t j, int64_t num_series) {
  DCHECK_NE(i, j);
  if (i > j) {
    std::swap(i, j);
  }
  DCHECK_GE(i, 0);
  DCHECK_LT(j, num_series);
  // Row-major upper triangle: offset of row i plus column displacement.
  return i * (2 * num_series - i - 1) / 2 + (j - i - 1);
}

void BasicWindowIndex::PairFromId(int64_t pair_id, int64_t num_series,
                                  int64_t* i, int64_t* j) {
  DCHECK_GE(pair_id, 0);
  DCHECK_LT(pair_id, num_series * (num_series - 1) / 2);
  // Closed-form inversion of the triangular layout. Counting q pairs from
  // the *end*, rows fill a lower triangle: the last row (i = n-2) holds 1
  // pair, the one before it 2, ... so the row counted-from-the-end is the
  // triangular root k of q, and (i, j) follow in O(1).
  const int64_t q = num_series * (num_series - 1) / 2 - 1 - pair_id;
  int64_t k = static_cast<int64_t>(
      (std::sqrt(8.0 * static_cast<double>(q) + 1.0) - 1.0) / 2.0);
  // The sqrt can land one off for huge ids; nudge onto the exact row.
  while ((k + 1) * (k + 2) / 2 <= q) {
    ++k;
  }
  while (k * (k + 1) / 2 > q) {
    --k;
  }
  *i = num_series - 2 - k;
  *j = num_series - 1 - (q - k * (k + 1) / 2);
}

Result<BasicWindowIndex> BasicWindowIndex::Build(
    const TimeSeriesMatrix& data, const BasicWindowIndexOptions& options,
    ThreadPool* pool) {
  if (data.empty()) {
    return Status::InvalidArgument("BasicWindowIndex: empty matrix");
  }
  if (options.basic_window <= 0) {
    return Status::InvalidArgument("BasicWindowIndex: basic_window must be > 0");
  }
  if (data.length() < options.basic_window) {
    return Status::InvalidArgument("BasicWindowIndex: series length ",
                                   data.length(),
                                   " shorter than one basic window of ",
                                   options.basic_window);
  }
  const int64_t nb = data.length() / options.basic_window;
  const int64_t b = options.basic_window;
  const bool blocked = options.use_blocked_kernel;
  // The blocked build's stats pass rejects NaN data; the scalar reference
  // path scans for it.
  std::optional<NormalizedPanels> panels;
  if (blocked) {
    ASSIGN_OR_RETURN(panels, ComputePanelStats(data, b, nb, pool));
  } else if (data.CountMissing() > 0) {
    return Status::FailedPrecondition(
        "BasicWindowIndex: data contains missing values; run "
        "InterpolateMissing first");
  }

  BasicWindowIndex index;
  index.data_ = &data;
  index.basic_window_ = options.basic_window;
  index.num_basic_windows_ = nb;
  index.num_series_ = data.num_series();
  index.num_pairs_ = data.num_series() * (data.num_series() - 1) / 2;

  // Per-series prefixes.
  PageStorage panel_storage;
  if (blocked) {
    // The stats pass already computed every window's mean and std-dev; the
    // prefixes fold from those stats. The panels hold every window at once
    // (the fold below runs tile pair by tile pair over all of them), in a
    // mapping of their own that nothing reuses: no recycler holds it.
    panels->panel_windows = nb;
    panel_storage =
        MapPageStorage(static_cast<size_t>(panels->PanelDoubles()));
    panels->values = panel_storage.get();
    FillPanels(data, 0, nb, &*panels, pool);
    index.series_ = SeriesPrefixes::FromPanels(*panels, pool);
  } else {
    index.series_ = SeriesPrefixes::FromRaw(data, b, pool);
  }

  // Pair rows: pad + round the stride to a multiple of 8 doubles so the
  // build's 8-window batch stores are full aligned cache lines; the blocks
  // come 64-byte aligned from the storage recycler.
  index.pair_row_stride_ = FullPairRowStride(nb);
  const size_t prefix_size =
      static_cast<size_t>(index.num_pairs_ * index.pair_row_stride_);
  index.pair_dot_block_ = SketchBlock(prefix_size);
  index.pair_omc_block_ = SketchBlock(prefix_size);
  index.pair_dot_prefix_ = index.pair_dot_block_.data();
  index.pair_one_minus_corr_prefix_ = index.pair_omc_block_.data();

  if (blocked) {
    index.BuildPairSketchesBlocked(*panels, pool);
  } else {
    // Seed-faithful reference baseline, including the seed's
    // zero-initialized allocation of the sketch arrays.
    std::fill_n(index.pair_dot_prefix_, prefix_size, 0.0);
    std::fill_n(index.pair_one_minus_corr_prefix_, prefix_size, 0.0);
    index.BuildPairSketchesScalar(data, pool);
  }
  return index;
}

SeriesPrefixes SeriesPrefixes::FromPanels(const NormalizedPanels& panels,
                                          ThreadPool* pool) {
  const int64_t n = panels.num_series;
  const int64_t nb = panels.num_windows;
  SeriesPrefixes prefixes;
  prefixes.num_windows = nb;
  prefixes.sum.assign(static_cast<size_t>(n * (nb + 1)), 0.0);
  prefixes.sumsq.assign(static_cast<size_t>(n * (nb + 1)), 0.0);
  const double bw = static_cast<double>(panels.basic_window);
  ForEachTask(pool, n, [&](int64_t s) {
    double sum_acc = 0.0;
    double sumsq_acc = 0.0;
    for (int64_t w = 0; w < nb; ++w) {
      const double mean = panels.mean[static_cast<size_t>(w * n + s)];
      const double sd = panels.stddev[static_cast<size_t>(w * n + s)];
      sum_acc += bw * mean;
      sumsq_acc += bw * (sd * sd + mean * mean);
      prefixes.sum[prefixes.Sx(s, w + 1)] = sum_acc;
      prefixes.sumsq[prefixes.Sx(s, w + 1)] = sumsq_acc;
    }
  });
  return prefixes;
}

SeriesPrefixes SeriesPrefixes::FromRaw(const TimeSeriesMatrix& data,
                                       int64_t basic_window, ThreadPool* pool) {
  const int64_t n = data.num_series();
  const int64_t b = basic_window;
  const int64_t nb = data.length() / b;
  SeriesPrefixes prefixes;
  prefixes.num_windows = nb;
  prefixes.sum.assign(static_cast<size_t>(n * (nb + 1)), 0.0);
  prefixes.sumsq.assign(static_cast<size_t>(n * (nb + 1)), 0.0);
  ForEachTask(pool, n, [&](int64_t s) {
    std::span<const double> row = data.Row(s);
    double sum_acc = 0.0;
    double sumsq_acc = 0.0;
    for (int64_t w = 0; w < nb; ++w) {
      for (int64_t t = w * b; t < (w + 1) * b; ++t) {
        const double v = row[static_cast<size_t>(t)];
        sum_acc += v;
        sumsq_acc += v * v;
      }
      prefixes.sum[prefixes.Sx(s, w + 1)] = sum_acc;
      prefixes.sumsq[prefixes.Sx(s, w + 1)] = sumsq_acc;
    }
  });
  return prefixes;
}

void BasicWindowIndex::BuildPairSketchesScalar(const TimeSeriesMatrix& data,
                                               ThreadPool* pool) {
  const int64_t nb = num_basic_windows_;
  const int64_t b = basic_window_;
  const int64_t n = num_series_;

  // The seed's reference path: one scalar dot loop per (pair, basic window),
  // walking pairs row by row. Kept as the equivalence oracle for the blocked
  // kernel and as the baseline of bench_microkernels.
  auto build_row = [&](int64_t i) {
    std::span<const double> xi = data.Row(i);
    for (int64_t j = i + 1; j < n; ++j) {
      std::span<const double> xj = data.Row(j);
      const int64_t p = PairId(i, j, n);
      double dot_acc = 0.0;
      double omc_acc = 0.0;
      pair_dot_prefix_[Px(p, 0)] = 0.0;
      pair_one_minus_corr_prefix_[Px(p, 0)] = 0.0;
      for (int64_t w = 0; w < nb; ++w) {
        double dot = 0.0;
        for (int64_t t = w * b; t < (w + 1) * b; ++t) {
          dot += xi[static_cast<size_t>(t)] * xj[static_cast<size_t>(t)];
        }
        dot_acc += dot;
        pair_dot_prefix_[Px(p, w + 1)] = dot_acc;

        // Basic-window correlation c_w from the already built per-series
        // prefixes plus this window's dot.
        const double sx = SumRange(i, w, w + 1);
        const double sy = SumRange(j, w, w + 1);
        const double sxx = SumSqRange(i, w, w + 1);
        const double syy = SumSqRange(j, w, w + 1);
        const double c =
            PearsonFromMoments(static_cast<double>(b), sx, sy, sxx, syy, dot);
        omc_acc += 1.0 - c;
        pair_one_minus_corr_prefix_[Px(p, w + 1)] = omc_acc;
      }
    }
  };

  if (pool != nullptr && pool->num_threads() > 1) {
    pool->ParallelFor(n, [&](int64_t i) { build_row(i); });
  } else {
    for (int64_t i = 0; i < n; ++i) {
      build_row(i);
    }
  }
}

void BasicWindowIndex::BuildPairSketchesBlocked(const NormalizedPanels& panels,
                                                ThreadPool* pool) {
  // One task per series-tile pair; the task folds *all* basic windows,
  // carrying the running prefix of every pair it owns in its accumulator
  // block, so each prefix slot is written exactly once, in its final form
  // (see AdvanceTilePair). Every (pair, window) slot is written by exactly
  // one task and the per-cell arithmetic is independent of the
  // decomposition, so any thread count produces bit-identical sketches.
  const PairPrefixRows out{pair_dot_prefix_, pair_one_minus_corr_prefix_,
                           pair_row_stride_};
  std::vector<TilePairState> tiles =
      MakeTilePairs(num_series_, 0, num_pairs_, /*with_omc=*/true);
  ForEachTask(pool, static_cast<int64_t>(tiles.size()), [&](int64_t t) {
    TilePairState& state = tiles[static_cast<size_t>(t)];
    WriteTilePairSlotZero(num_series_, state, out);
    AdvanceTilePair(panels, panels.num_windows, &state, out);
  });
}

double BasicWindowIndex::PairRangeCorrelation(int64_t p, int64_t lo,
                                              int64_t hi) const {
  DCHECK_LT(lo, hi);
  int64_t i = 0;
  int64_t j = 0;
  PairFromId(p, num_series_, &i, &j);
  const double n = static_cast<double>((hi - lo) * basic_window_);
  return PearsonFromMoments(n, SumRange(i, lo, hi), SumRange(j, lo, hi),
                            SumSqRange(i, lo, hi), SumSqRange(j, lo, hi),
                            DotRange(p, lo, hi));
}

int64_t BasicWindowIndex::MemoryBytes() const {
  return series_.MemoryBytes() +
         static_cast<int64_t>((pair_dot_block_.size() + pair_omc_block_.size()) *
                              sizeof(double));
}

int64_t BasicWindowIndex::EstimateMemoryBytes(
    int64_t num_series, int64_t length,
    const BasicWindowIndexOptions& options) {
  if (num_series <= 0 || options.basic_window <= 0 ||
      length < options.basic_window) {
    return 0;
  }
  const int64_t nb = length / options.basic_window;
  // The two series prefixes, then the two pair prefixes at Build's padded
  // stride; MemoryBytes counts the prefix slots (not the alignment slack),
  // so this matches the built index exactly.
  const int64_t num_pairs = num_series * (num_series - 1) / 2;
  const int64_t doubles =
      2 * num_series * (nb + 1) + 2 * num_pairs * FullPairRowStride(nb);
  return doubles * static_cast<int64_t>(sizeof(double));
}

}  // namespace dangoron
