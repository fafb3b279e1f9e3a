#ifndef DANGORON_SKETCH_BASIC_WINDOW_INDEX_H_
#define DANGORON_SKETCH_BASIC_WINDOW_INDEX_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "corr/block_kernel.h"
#include "sketch/pair_prefix_build.h"
#include "ts/time_series_matrix.h"

namespace dangoron {

/// Options for building a BasicWindowIndex.
struct BasicWindowIndexOptions {
  /// Size `b` of each basic window (columns). The series is cut into
  /// floor(L / b) full basic windows; a ragged tail is ignored by the index
  /// (engines handle it from raw data when needed).
  int64_t basic_window = 24;
  /// Build the pair sketches with the blocked z-normalized Gram kernel
  /// (default): each basic window's N x N correlation tile is computed as a
  /// cache-blocked rank-b update over per-window z-normalized data. Turn off
  /// to use the seed's per-pair scalar loop — the equivalence oracle of the
  /// kernel tests and the baseline of bench_microkernels; both paths agree
  /// within 1e-9 and each is bit-deterministic across thread counts.
  bool use_blocked_kernel = true;
};

/// Per-series basic-window prefix sums: slot w of series s holds the sum
/// (and the sum of squares) of the series over basic windows [0, w), so any
/// aligned range statistic is two loads and a subtract.
struct SeriesPrefixes {
  int64_t num_windows = 0;  ///< nb: each series row holds nb + 1 slots
  std::vector<double> sum;
  std::vector<double> sumsq;

  /// Sum of series `s` over basic windows [lo, hi).
  double SumRange(int64_t s, int64_t lo, int64_t hi) const {
    return sum[Sx(s, hi)] - sum[Sx(s, lo)];
  }
  /// Sum of squares of series `s` over basic windows [lo, hi).
  double SumSqRange(int64_t s, int64_t lo, int64_t hi) const {
    return sumsq[Sx(s, hi)] - sumsq[Sx(s, lo)];
  }
  int64_t MemoryBytes() const {
    return static_cast<int64_t>((sum.size() + sumsq.size()) * sizeof(double));
  }

  /// Folds the prefixes from the panel normalization's window stats
  /// (window sum = b * mean, window sum of squares = b * (sd^2 + mean^2),
  /// exact up to one rounding) instead of re-scanning the raw matrix — the
  /// blocked build's fold, whose roundings every pair-sketch producer
  /// shares.
  static SeriesPrefixes FromPanels(const NormalizedPanels& panels,
                                   ThreadPool* pool);
  /// Folds the prefixes from a raw scan of `data`'s full basic windows
  /// (rounds differently from FromPanels).
  static SeriesPrefixes FromRaw(const TimeSeriesMatrix& data,
                                int64_t basic_window, ThreadPool* pool);

 private:
  size_t Sx(int64_t s, int64_t w) const {
    return static_cast<size_t>(s * (num_windows + 1) + w);
  }
};

/// Read view of the resident pair dot-prefix block: prefix slot s of pair
/// p sits at `rows[p * row_stride + s + kPairRowPad]`.
struct PairDotRows {
  const double* rows = nullptr;
  int64_t row_stride = 0;
};

/// The basic-window sketch of the paper (Section 3): per-series and per-pair
/// statistics at basic-window granularity, with prefix sums along the
/// basic-window axis so any *aligned* range statistic is O(1).
///
/// Layout notes:
/// - Pairs (i, j), i < j, are addressed by a canonical dense id, see PairId.
/// - All prefix arrays have nb + 1 entries per series/pair, so a range
///   [lo, hi) reduces to two loads and a subtract.
///
/// The index borrows the data matrix; it must outlive the index.
class BasicWindowIndex {
 public:
  /// Builds the index over all columns of `data`. When `pool` is non-null,
  /// pair sketches are built in parallel. Fails when the matrix is empty,
  /// contains NaN (interpolate first), or is shorter than one basic window.
  /// The pair blocks live in SketchBlocks, so a destroyed or reassigned
  /// index returns its storage to the process-wide recycler.
  static Result<BasicWindowIndex> Build(
      const TimeSeriesMatrix& data, const BasicWindowIndexOptions& options,
      ThreadPool* pool = nullptr);

  int64_t basic_window() const { return basic_window_; }
  int64_t num_basic_windows() const { return num_basic_windows_; }
  int64_t num_series() const { return num_series_; }
  int64_t num_pairs() const { return num_pairs_; }
  const TimeSeriesMatrix& data() const { return *data_; }

  /// Canonical id of pair (i, j), i != j, in [0, N*(N-1)/2).
  static int64_t PairId(int64_t i, int64_t j, int64_t num_series);

  /// Inverse of PairId, in O(1) via the closed-form triangular root.
  static void PairFromId(int64_t pair_id, int64_t num_series, int64_t* i,
                         int64_t* j);

  // --- per-series, basic-window-aligned range statistics (O(1)) ---

  /// Sum of series `s` over basic windows [lo, hi).
  double SumRange(int64_t s, int64_t lo, int64_t hi) const {
    return series_.SumRange(s, lo, hi);
  }
  /// Sum of squares of series `s` over basic windows [lo, hi).
  double SumSqRange(int64_t s, int64_t lo, int64_t hi) const {
    return series_.SumSqRange(s, lo, hi);
  }
  const SeriesPrefixes& series_prefixes() const { return series_; }

  // --- per-pair statistics ---

  /// Inner product sum_t x_t * y_t of pair `p` over basic windows [lo, hi).
  double DotRange(int64_t p, int64_t lo, int64_t hi) const {
    return pair_dot_prefix_[Px(p, hi)] - pair_dot_prefix_[Px(p, lo)];
  }

  /// The pair dot-prefix block for the window-major sweep
  /// (corr/sweep_kernel.h): DotRange(p, lo, hi) is the hi/lo slot
  /// difference. Valid while the index is alive.
  PairDotRows DotRows() const {
    return PairDotRows{pair_dot_prefix_, pair_row_stride_};
  }

  /// Sum over basic windows [lo, hi) of (1 - c_i), where c_i is the pair's
  /// Pearson correlation within basic window i (0 when either side is
  /// constant there): the Eq. 2 jump budget.
  /// Monotone non-negative in hi, enabling binary search.
  double OneMinusCorrRange(int64_t p, int64_t lo, int64_t hi) const {
    return pair_one_minus_corr_prefix_[Px(p, hi)] -
           pair_one_minus_corr_prefix_[Px(p, lo)];
  }

  /// Software-prefetches prefix slots [lo, dot_hi] of pair `p`'s dot row and
  /// [lo, omc_hi] of its OneMinusCorrRange row, one prefetch per cache line:
  /// the pair-major jump walk issues this a few pairs ahead, so its
  /// dependent binary-search probes into rows a whole sketch row apart hit
  /// cache instead of missing to DRAM one after another. Slots must lie in
  /// [0, num_basic_windows()]; no pointer outside them is formed.
  /// Always inlined: GCC's IPA pass deems an out-of-line function of bare
  /// prefetches side-effect free and deletes the call.
  [[gnu::always_inline]] void PrefetchPairRows(int64_t p, int64_t lo,
                                               int64_t dot_hi,
                                               int64_t omc_hi) const {
    PrefetchRowSlots(pair_dot_prefix_ + Px(p, 0), lo, dot_hi, 8);
    PrefetchRowSlots(pair_one_minus_corr_prefix_ + Px(p, 0), lo, omc_hi, 8);
  }

  /// Exact Pearson correlation of pair id `p` over basic windows [lo, hi),
  /// combined from the sketch in O(1) (moment form of Eq. 1). Returns 0 when
  /// either series is constant over the range.
  double PairRangeCorrelation(int64_t p, int64_t lo, int64_t hi) const;

  /// Bytes of sketch storage (diagnostics for the build benches).
  int64_t MemoryBytes() const;

  /// Bytes an index built over an `num_series x length` matrix with
  /// `options` will hold, without building it — the sketch cache's admission
  /// arithmetic. Matches MemoryBytes() of the built index exactly.
  static int64_t EstimateMemoryBytes(int64_t num_series, int64_t length,
                                     const BasicWindowIndexOptions& options);

 private:
  BasicWindowIndex() = default;

  /// Blocked build of the pair sketches (see
  /// BasicWindowIndexOptions::use_blocked_kernel); fills pair_dot_prefix_
  /// and pair_one_minus_corr_prefix_ from per-window z-normalized panels.
  void BuildPairSketchesBlocked(const NormalizedPanels& panels,
                                ThreadPool* pool);
  /// The seed's scalar per-pair reference build of the same sketches.
  void BuildPairSketchesScalar(const TimeSeriesMatrix& data, ThreadPool* pool);

  /// Pair rows are padded (kPairRowPad), so the build's batched 8-window
  /// runs land as full aligned cache lines.
  size_t Px(int64_t p, int64_t w) const {
    return static_cast<size_t>(p * pair_row_stride_ + kPairRowPad + w);
  }

  const TimeSeriesMatrix* data_ = nullptr;
  int64_t basic_window_ = 0;
  int64_t num_basic_windows_ = 0;
  int64_t num_series_ = 0;
  int64_t num_pairs_ = 0;

  // Prefix arrays, one row per series/pair. Pair rows are padded to
  // pair_row_stride_ (see kPairRowPad). The pair blocks are allocated
  // *uninitialized* (every slot is written during the build): at scale
  // they are the dominant allocation, and the redundant zeroing pass costs
  // a full sweep of memory bandwidth. The blocks own the memory; the
  // pointers index it.
  SeriesPrefixes series_;
  SketchBlock pair_dot_block_;
  SketchBlock pair_omc_block_;
  double* pair_dot_prefix_ = nullptr;
  double* pair_one_minus_corr_prefix_ = nullptr;
  int64_t pair_row_stride_ = 0;
};

}  // namespace dangoron

#endif  // DANGORON_SKETCH_BASIC_WINDOW_INDEX_H_
