#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "bound/bounds.h"
#include "common/logging.h"
#include "common/rng.h"
#include "sketch/basic_window_index.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

// -------------------------------------------------------- Temporal bound --

struct BoundFixture {
  TimeSeriesMatrix data;
  std::optional<BasicWindowIndex> index;
  int64_t b = 8;
  int64_t nb = 0;

  // Builds a two-series matrix from the given pair generator.
  void Build(std::vector<double> x, std::vector<double> y) {
    auto matrix = TimeSeriesMatrix::FromRows({std::move(x), std::move(y)});
    CHECK(matrix.ok());
    data = std::move(*matrix);
    BasicWindowIndexOptions options;
    options.basic_window = b;
    auto built = BasicWindowIndex::Build(data, options);
    CHECK(built.ok());
    index.emplace(std::move(*built));
    nb = index->num_basic_windows();
  }

  // Exact correlation of window starting at basic window w0 spanning ns.
  double Exact(int64_t w0, int64_t ns) const {
    return index->PairRangeCorrelation(0, w0, w0 + ns);
  }
};

// On stationary data (the paper's assumption), Eq. 2 bounds hold for the
// overwhelming majority of (window, horizon) combinations. We verify
// containment with a small slack and require a near-zero violation rate.
TEST(TemporalBoundTest, BoundsHoldOnStationaryData) {
  Rng rng(3);
  BoundFixture fixture;
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 200, 0.5, &rng, &x, &y);
  fixture.Build(std::move(x), std::move(y));

  const int64_t ns = 12;
  const int64_t m = 1;
  const TemporalBound bound(&*fixture.index, ns, m);

  int64_t checks = 0;
  int64_t upper_violations = 0;
  int64_t lower_violations = 0;
  for (int64_t k = 0; k + ns + 40 <= fixture.nb; k += 3) {
    const double corr0 = fixture.Exact(k, ns);
    for (int64_t j = 1; j <= 40; j += 3) {
      const double actual = fixture.Exact(k + j * m, ns);
      const double upper = bound.UpperBound(0, k, corr0, j);
      const double lower = bound.LowerBound(0, k, corr0, j);
      ++checks;
      if (actual > upper + 0.05) {
        ++upper_violations;
      }
      if (actual < lower - 0.05) {
        ++lower_violations;
      }
    }
  }
  ASSERT_GT(checks, 500);
  // Statistical bound: tolerate a tiny violation rate from sampling noise.
  EXPECT_LT(static_cast<double>(upper_violations) / checks, 0.01);
  EXPECT_LT(static_cast<double>(lower_violations) / checks, 0.01);
}

TEST(TemporalBoundTest, UpperBoundMonotoneInHorizon) {
  Rng rng(4);
  BoundFixture fixture;
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 100, 0.3, &rng, &x, &y);
  fixture.Build(std::move(x), std::move(y));
  const TemporalBound bound(&*fixture.index, 10, 1);
  const double corr0 = fixture.Exact(0, 10);
  double previous = -2.0;
  for (int64_t j = 1; j <= 50; ++j) {
    const double upper = bound.UpperBound(0, 0, corr0, j);
    EXPECT_GE(upper, previous - 1e-12) << "j=" << j;
    previous = upper;
  }
}

TEST(TemporalBoundTest, LowerBoundNonIncreasingInHorizon) {
  Rng rng(5);
  BoundFixture fixture;
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 100, 0.3, &rng, &x, &y);
  fixture.Build(std::move(x), std::move(y));
  const TemporalBound bound(&*fixture.index, 10, 1);
  const double corr0 = fixture.Exact(0, 10);
  double previous = 2.0;
  for (int64_t j = 1; j <= 50; ++j) {
    const double lower = bound.LowerBound(0, 0, corr0, j);
    EXPECT_LE(lower, previous + 1e-12) << "j=" << j;
    previous = lower;
  }
}

TEST(TemporalBoundTest, BinarySearchMatchesLinearScan) {
  Rng rng(6);
  BoundFixture fixture;
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 150, 0.2, &rng, &x, &y);
  fixture.Build(std::move(x), std::move(y));
  const int64_t ns = 15;
  const TemporalBound bound(&*fixture.index, ns, 1);

  for (const double beta : {0.3, 0.5, 0.8}) {
    for (int64_t k = 0; k + ns + 60 <= fixture.nb; k += 7) {
      const double corr0 = fixture.Exact(k, ns);
      if (corr0 >= beta) {
        continue;
      }
      const int64_t max_steps = 60;
      const int64_t fast =
          bound.MaxSkippableBelow(0, k, corr0, beta, max_steps);
      // Linear oracle.
      int64_t slow = 0;
      for (int64_t j = 1; j <= max_steps; ++j) {
        if (bound.UpperBound(0, k, corr0, j) < beta) {
          slow = j;
        } else {
          break;
        }
      }
      EXPECT_EQ(fast, slow) << "beta=" << beta << " k=" << k;
    }
  }
}

TEST(TemporalBoundTest, AboveSearchMatchesLinearScan) {
  Rng rng(7);
  BoundFixture fixture;
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 150, 0.9, &rng, &x, &y);
  fixture.Build(std::move(x), std::move(y));
  const int64_t ns = 15;
  const TemporalBound bound(&*fixture.index, ns, 1);

  const double beta = 0.5;
  for (int64_t k = 0; k + ns + 60 <= fixture.nb; k += 7) {
    const double corr0 = fixture.Exact(k, ns);
    if (corr0 < beta) {
      continue;
    }
    const int64_t fast = bound.MaxSkippableAbove(0, k, corr0, beta, 60);
    int64_t slow = 0;
    for (int64_t j = 1; j <= 60; ++j) {
      if (bound.LowerBound(0, k, corr0, j) >= beta) {
        slow = j;
      } else {
        break;
      }
    }
    EXPECT_EQ(fast, slow) << "k=" << k;
  }
}

TEST(TemporalBoundTest, ZeroMaxStepsSkipsNothing) {
  Rng rng(8);
  BoundFixture fixture;
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 50, 0.0, &rng, &x, &y);
  fixture.Build(std::move(x), std::move(y));
  const TemporalBound bound(&*fixture.index, 5, 1);
  EXPECT_EQ(bound.MaxSkippableBelow(0, 0, 0.0, 0.9, 0), 0);
  EXPECT_EQ(bound.MaxSkippableAbove(0, 0, 0.95, 0.9, 0), 0);
}

TEST(TemporalBoundTest, AboveSkipHorizonIsConservative) {
  // The lower bound must assume every *entering* basic window has c = -1,
  // so it decays by 2*m/ns per step even for a near-perfectly correlated
  // pair: lower(j) ~ corr0 - 2j/ns. With corr0 ~ 0.999, beta = 0.5 and
  // ns = 8, that admits j <= ns*(corr0 - beta)/2 ~ 1.99: exactly one or two
  // skippable windows, never more.
  Rng rng(9);
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 60, 0.999, &rng, &x, &y);
  BoundFixture fixture;
  fixture.Build(std::move(x), std::move(y));
  const TemporalBound bound(&*fixture.index, 8, 1);
  const double corr0 = fixture.Exact(0, 8);
  EXPECT_GE(corr0, 0.9);
  const int64_t skip = bound.MaxSkippableAbove(0, 0, corr0, 0.5, 40);
  EXPECT_GE(skip, 1);
  EXPECT_LE(skip, 2);
}

TEST(TemporalBoundTest, AntiCorrelatedPairSkipsFar) {
  // Persistent negative correlation burns jump budget slowly relative to a
  // high threshold, so below-skips reach far.
  Rng rng(10);
  std::vector<double> x, y;
  GenerateCorrelatedPair(8 * 60, -0.8, &rng, &x, &y);
  BoundFixture fixture;
  fixture.Build(std::move(x), std::move(y));
  const TemporalBound bound(&*fixture.index, 8, 1);
  const double corr0 = fixture.Exact(0, 8);
  ASSERT_LT(corr0, 0.0);
  EXPECT_GT(bound.MaxSkippableBelow(0, 0, corr0, 0.9, 40), 0);
}

}  // namespace
}  // namespace dangoron
