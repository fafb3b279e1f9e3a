#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/sketch_block.h"
#include "common/thread_pool.h"
#include "corr/pearson.h"
#include "sketch/band_streamed_sketch.h"
#include "sketch/basic_window_index.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

TEST(PairIdTest, RoundTripsAllPairs) {
  for (const int64_t n : {2, 3, 5, 17, 64, 129, 500}) {
    int64_t expected_id = 0;
    for (int64_t i = 0; i < n; ++i) {
      for (int64_t j = i + 1; j < n; ++j) {
        const int64_t id = BasicWindowIndex::PairId(i, j, n);
        EXPECT_EQ(id, expected_id) << "n=" << n;
        int64_t ri = 0;
        int64_t rj = 0;
        BasicWindowIndex::PairFromId(id, n, &ri, &rj);
        EXPECT_EQ(ri, i);
        EXPECT_EQ(rj, j);
        ++expected_id;
      }
    }
    EXPECT_EQ(expected_id, n * (n - 1) / 2);
  }
}

TEST(PairIdTest, ClosedFormInversionSurvivesHugeN) {
  // The closed-form sqrt inversion must stay exact far beyond any size the
  // exhaustive round trip can cover, including the first and last ids of
  // each row, where an off-by-one triangular root would show.
  for (const int64_t n : {100000, 1 << 20}) {
    for (const int64_t i : {int64_t{0}, int64_t{1}, n / 3, n - 3, n - 2}) {
      for (const int64_t j : {i + 1, i + 2, (i + n) / 2, n - 1}) {
        if (j <= i || j >= n) {
          continue;
        }
        int64_t ri = 0;
        int64_t rj = 0;
        BasicWindowIndex::PairFromId(BasicWindowIndex::PairId(i, j, n), n,
                                     &ri, &rj);
        EXPECT_EQ(ri, i) << "n=" << n << " j=" << j;
        EXPECT_EQ(rj, j) << "n=" << n << " i=" << i;
      }
    }
  }
}

TEST(PairIdTest, OrderInsensitive) {
  EXPECT_EQ(BasicWindowIndex::PairId(3, 7, 10),
            BasicWindowIndex::PairId(7, 3, 10));
}

TEST(BasicWindowIndexTest, RejectsBadInput) {
  Rng rng(1);
  TimeSeriesMatrix data = GenerateWhiteNoise(4, 100, &rng);

  BasicWindowIndexOptions options;
  options.basic_window = 0;
  EXPECT_FALSE(BasicWindowIndex::Build(data, options).ok());

  options.basic_window = 200;  // longer than the series
  EXPECT_FALSE(BasicWindowIndex::Build(data, options).ok());

  options.basic_window = 10;
  TimeSeriesMatrix empty;
  EXPECT_FALSE(BasicWindowIndex::Build(empty, options).ok());

  data.Set(1, 5, MissingValue());
  EXPECT_FALSE(BasicWindowIndex::Build(data, options).ok());
}

// Both sketch producers refuse NaN data wherever it sits: in the first
// sample, inside the last window the stream folds (and the last full
// window the index folds), in a window past the stream's last slot, and in
// the ragged tail past the last full basic window.
TEST(BasicWindowIndexTest, BuildAndStreamRejectNaNAnywhere) {
  const int64_t n = 10;
  const int64_t b = 8;
  const int64_t nb = 30;
  Rng rng(11);
  const TimeSeriesMatrix clean = GenerateWhiteNoise(n, nb * b + 5, &rng);
  BasicWindowIndexOptions index_options;
  index_options.basic_window = b;
  BasicWindowIndexOptions scalar_options = index_options;
  scalar_options.use_blocked_kernel = false;
  BandStreamOptions stream_options;
  stream_options.basic_window = b;
  stream_options.band_slots = 8;
  stream_options.last_slot = 12;  // folds windows [0, 16)
  stream_options.pair_begin = 0;
  stream_options.pair_end = n * (n - 1) / 2;
  ASSERT_TRUE(BasicWindowIndex::Build(clean, index_options).ok());
  ASSERT_TRUE(BandStreamedSketch::Create(clean, stream_options).ok());

  const std::pair<int64_t, int64_t> places[] = {
      {0, 0},                   // the first sample
      {n - 1, 15 * b + 3},      // inside the stream's last folded window
      {3, (nb - 1) * b + 7},    // the last sample of the last full window
      {4, 20 * b + 1},          // a window past the stream's last slot
      {7, nb * b + 2},          // the ragged tail
  };
  for (const auto& [series, t] : places) {
    SCOPED_TRACE(testing::Message() << "NaN at series " << series << " t "
                                    << t);
    TimeSeriesMatrix data = clean;
    data.Set(series, t, MissingValue());
    EXPECT_EQ(BasicWindowIndex::Build(data, index_options).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(BasicWindowIndex::Build(data, scalar_options).status().code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(BandStreamedSketch::Create(data, stream_options).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

TEST(BasicWindowIndexTest, RaggedTailIsTruncated) {
  Rng rng(2);
  TimeSeriesMatrix data = GenerateWhiteNoise(2, 103, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 10;
  const auto index = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(index.ok());
  EXPECT_EQ(index->num_basic_windows(), 10);
  EXPECT_EQ(index->basic_window(), 10);
  EXPECT_EQ(index->num_series(), 2);
  EXPECT_EQ(index->num_pairs(), 1);
}

TEST(BasicWindowIndexTest, PerSeriesPrefixSumsMatchDirect) {
  Rng rng(3);
  TimeSeriesMatrix data = GenerateWhiteNoise(3, 96, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 8;
  const auto index = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(index.ok());

  for (int64_t s = 0; s < 3; ++s) {
    for (int64_t lo = 0; lo < 12; ++lo) {
      for (int64_t hi = lo + 1; hi <= 12; ++hi) {
        double sum = 0.0;
        double sumsq = 0.0;
        for (int64_t t = lo * 8; t < hi * 8; ++t) {
          const double v = data.Get(s, t);
          sum += v;
          sumsq += v * v;
        }
        EXPECT_NEAR(index->SumRange(s, lo, hi), sum, 1e-9);
        EXPECT_NEAR(index->SumSqRange(s, lo, hi), sumsq, 1e-9);
      }
    }
  }
}

TEST(BasicWindowIndexTest, BasicWindowPrefixesMatchOracle) {
  Rng rng(4);
  TimeSeriesMatrix data = GenerateWhiteNoise(2, 64, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 16;
  const auto index = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(index.ok());

  for (int64_t s = 0; s < 2; ++s) {
    const auto stats = ComputeBasicWindowStats(data.Row(s), 16);
    for (int64_t w = 0; w < 4; ++w) {
      const double mean = index->SumRange(s, w, w + 1) / 16.0;
      const double var = index->SumSqRange(s, w, w + 1) / 16.0 - mean * mean;
      EXPECT_NEAR(mean, stats[static_cast<size_t>(w)].mean, 1e-10);
      EXPECT_NEAR(std::sqrt(std::max(var, 0.0)),
                  stats[static_cast<size_t>(w)].stddev, 1e-10);
    }
  }
}

TEST(BasicWindowIndexTest, BasicWindowCorrelationMatchesOracle) {
  Rng rng(5);
  std::vector<double> x, y;
  GenerateCorrelatedPair(120, 0.7, &rng, &x, &y);
  auto matrix = TimeSeriesMatrix::FromRows({x, y});
  ASSERT_TRUE(matrix.ok());
  BasicWindowIndexOptions options;
  options.basic_window = 12;
  const auto index = BasicWindowIndex::Build(*matrix, options);
  ASSERT_TRUE(index.ok());

  const std::vector<double> oracle = ComputeBasicWindowCorrelations(x, y, 12);
  for (int64_t w = 0; w < 10; ++w) {
    EXPECT_NEAR(1.0 - index->OneMinusCorrRange(0, w, w + 1),
                oracle[static_cast<size_t>(w)], 1e-9)
        << "w=" << w;
  }
}

TEST(BasicWindowIndexTest, OneMinusCorrRangeIsMonotonePrefix) {
  Rng rng(6);
  TimeSeriesMatrix data = GenerateWhiteNoise(2, 200, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 10;
  const auto index = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(index.ok());
  double previous = 0.0;
  for (int64_t hi = 1; hi <= 20; ++hi) {
    const double value = index->OneMinusCorrRange(0, 0, hi);
    // c in [-1, 1] so each term (1 - c) is in [0, 2]: non-decreasing prefix.
    EXPECT_GE(value, previous - 1e-12);
    EXPECT_LE(value - previous, 2.0 + 1e-12);
    previous = value;
  }
}

// Parameterized: exact range correlation from the sketch must equal the
// naive Pearson over the same columns for every geometry.
class SketchRangeSweep
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t>> {};

TEST_P(SketchRangeSweep, RangeCorrelationMatchesNaive) {
  const int64_t b = std::get<0>(GetParam());
  const int64_t num_series = std::get<1>(GetParam());
  const int64_t nb = 15;
  Rng rng(static_cast<uint64_t>(100 + b + num_series));
  TimeSeriesMatrix data = GenerateWhiteNoise(num_series, b * nb, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = b;
  const auto index = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(index.ok());

  for (int64_t i = 0; i < num_series; ++i) {
    for (int64_t j = i + 1; j < num_series; ++j) {
      const int64_t p = BasicWindowIndex::PairId(i, j, num_series);
      for (const auto& [lo, hi] :
           {std::pair<int64_t, int64_t>{0, nb}, {0, 3}, {5, 9}, {nb - 2, nb}}) {
        const double expected = PearsonNaive(
            data.RowRange(i, lo * b, (hi - lo) * b),
            data.RowRange(j, lo * b, (hi - lo) * b));
        EXPECT_NEAR(index->PairRangeCorrelation(p, lo, hi), expected, 1e-8)
            << "pair (" << i << "," << j << ") range [" << lo << "," << hi
            << ")";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SketchRangeSweep,
    ::testing::Combine(::testing::Values<int64_t>(4, 9, 24),
                       ::testing::Values<int64_t>(2, 5, 8)));

TEST(BasicWindowIndexTest, ParallelBuildMatchesSequential) {
  Rng rng(7);
  TimeSeriesMatrix data = GenerateWhiteNoise(10, 240, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 24;
  const auto sequential = BasicWindowIndex::Build(data, options);
  ThreadPool pool(4);
  const auto parallel = BasicWindowIndex::Build(data, options, &pool);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  for (int64_t p = 0; p < sequential->num_pairs(); ++p) {
    for (int64_t w = 0; w < sequential->num_basic_windows(); ++w) {
      EXPECT_DOUBLE_EQ(sequential->DotRange(p, w, w + 1),
                       parallel->DotRange(p, w, w + 1));
      EXPECT_DOUBLE_EQ(sequential->OneMinusCorrRange(p, w, w + 1),
                       parallel->OneMinusCorrRange(p, w, w + 1));
    }
  }
}

TEST(BasicWindowIndexTest, MemoryAccounting) {
  Rng rng(9);
  TimeSeriesMatrix data = GenerateWhiteNoise(4, 64, &rng);
  BasicWindowIndexOptions options;
  options.basic_window = 8;
  const auto index = BasicWindowIndex::Build(data, options);
  ASSERT_TRUE(index.ok());
  EXPECT_GT(index->MemoryBytes(), 0);
  EXPECT_EQ(index->MemoryBytes(),
            BasicWindowIndex::EstimateMemoryBytes(
                data.num_series(), data.length(), options));
}

// A band stream's ring holds exactly the resident index's dot-prefix
// slots, bit for bit, at every point of a slot-by-slot advance — across
// thread counts, shard pair ranges that cut through tile pairs (N = 70 is
// two series tiles), and a data end on a ragged 5-window batch — and its
// MemoryBytes is the closed-form estimate.
// Also over series counts whose last tile is ragged (50, 97) and a pair
// range that starts mid-tile, so the diagonal and partial-column Gram
// blocks feed the stream as they feed the index, and over N = 9, whose one
// tile is diagonal and whose rows hold at most one 8-pair vector. The slab
// is read through its slot accessor (Slots()), so the test follows the
// slot-major layout rather than restating it.
TEST(BandStreamedSketchTest, RingSlotsAreTheIndexSlotsBitForBit) {
  const int64_t b = 4;
  const int64_t nb = 61;
  for (const int64_t n : {70, 50, 97, 9}) {
    Rng rng(4242 + static_cast<uint64_t>(n));
    TimeSeriesMatrix data(n, nb * b + 2);
    for (int64_t s = 0; s < n; ++s) {
      double level = rng.NextGaussian();
      for (int64_t t = 0; t < data.length(); ++t) {
        level += 0.3 * rng.NextGaussian();
        data.Set(s, t, level);
      }
    }
    BasicWindowIndexOptions index_options;
    index_options.basic_window = b;
    auto index = BasicWindowIndex::Build(data, index_options);
    ASSERT_TRUE(index.ok());
    const PairDotRows full = index->DotRows();
    const int64_t num_pairs = n * (n - 1) / 2;
    std::vector<std::pair<int64_t, int64_t>> ranges{
        {0, num_pairs}, {num_pairs / 3 + 1, 2 * num_pairs / 3}};
    if (num_pairs >= 1700) {
      ranges.emplace_back(500, 1700);
    }

    for (const int threads : {1, 3}) {
      ThreadPool pool(threads);
      for (const auto& [pair_begin, pair_end] : ranges) {
        SCOPED_TRACE(testing::Message()
                     << "n=" << n << " threads=" << threads << " pairs=["
                     << pair_begin << ", " << pair_end << ")");
        BandStreamOptions options;
        options.basic_window = b;
        options.band_slots = 13;  // R = 24: the ring wraps every 24 slots
        options.last_slot = nb;
        options.pair_begin = pair_begin;
        options.pair_end = pair_end;
        // Every slot in turn, then targets that stop inside a panel chunk
        // and later jump across chunk and ring boundaries.
        std::vector<int64_t> every_slot;
        for (int64_t slot = 0; slot <= nb; ++slot) {
          every_slot.push_back(slot);
        }
        const std::vector<int64_t> jumps{1, 9, 17, 41, nb};
        for (const std::vector<int64_t>& targets : {every_slot, jumps}) {
          auto stream = BandStreamedSketch::Create(data, options, &pool);
          ASSERT_TRUE(stream.ok());
          EXPECT_EQ(stream->MemoryBytes(),
                    BandStreamedSketch::EstimateMemoryBytes(n, data.length(),
                                                            options));
          const SlotRingView ring = stream->Slots();
          ASSERT_EQ(ring.ring_slots, 24);
          for (const int64_t slot : targets) {
            stream->AdvanceTo(slot, &pool);
            ASSERT_GE(stream->newest_slot(), slot);
            for (int64_t s = stream->oldest_slot();
                 s <= stream->newest_slot(); ++s) {
              for (int64_t p = pair_begin; p < pair_end; ++p) {
                int64_t i = 0;
                int64_t j = 0;
                BasicWindowIndex::PairFromId(p, n, &i, &j);
                const double got = ring.Row(s)[ring.Column(i, j)];
                const double want =
                    full.rows[p * full.row_stride + s + kPairRowPad];
                ASSERT_EQ(std::bit_cast<uint64_t>(got),
                          std::bit_cast<uint64_t>(want))
                    << "target " << slot << " slot " << s << " pair " << p;
              }
            }
          }
          for (int64_t s = 0; s <= nb; s += 7) {
            EXPECT_EQ(std::bit_cast<uint64_t>(
                          stream->series_prefixes().SumRange(5, 0, s)),
                      std::bit_cast<uint64_t>(index->SumRange(5, 0, s)));
          }
        }
      }
    }
  }
}

// A full index build maps its panels for itself and unmaps them when done,
// so the recycler keeps only the index's two pair blocks. A band stream's
// panel chunk shares one recycled block with its ring slab, which the next
// stream of the same geometry takes back whole.
TEST(BandStreamedSketchTest, StreamPanelsShareTheRecycledRingBlock) {
  Rng rng(77);
  const int64_t n = 40;
  const int64_t b = 8;
  const int64_t nb = 30;
  const TimeSeriesMatrix data = GenerateWhiteNoise(n, b * nb, &rng);
  TrimSketchRecycler();
  BasicWindowIndexOptions index_options;
  index_options.basic_window = b;
  ASSERT_TRUE(BasicWindowIndex::Build(data, index_options).ok());
  const int64_t pair_block_bytes = n * (n - 1) / 2 * FullPairRowStride(nb) *
                                   static_cast<int64_t>(sizeof(double));
  EXPECT_EQ(SketchRecyclerRetainedBytes(), 2 * pair_block_bytes);

  BandStreamOptions options;
  options.basic_window = b;
  options.band_slots = 8;
  options.last_slot = nb;
  options.pair_begin = 0;
  options.pair_end = n * (n - 1) / 2;
  int64_t block_bytes = 0;
  {
    auto stream = BandStreamedSketch::Create(data, options, /*pool=*/nullptr);
    ASSERT_TRUE(stream.ok());
    stream->AdvanceTo(nb);
    const SlotRingView ring = stream->Slots();
    // One tile of kStreamPanelWindows panels after the slab.
    block_bytes = (ring.ring_slots * ring.row_width +
                   kStreamPanelWindows * b * kCorrTile) *
                  static_cast<int64_t>(sizeof(double));
  }
  EXPECT_EQ(SketchRecyclerRetainedBytes(), 2 * pair_block_bytes + block_bytes);
  {
    auto stream = BandStreamedSketch::Create(data, options, /*pool=*/nullptr);
    ASSERT_TRUE(stream.ok());
    EXPECT_EQ(SketchRecyclerRetainedBytes(), 2 * pair_block_bytes);
  }
  TrimSketchRecycler();
}

}  // namespace
}  // namespace dangoron
