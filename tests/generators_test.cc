#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "corr/pearson.h"
#include "ts/generators.h"

namespace dangoron {
namespace {

// ----------------------------------------------------------- Elementary --

TEST(CorrelatedPairTest, RealizesTargetCorrelation) {
  Rng rng(4);
  for (const double rho : {-0.9, -0.3, 0.0, 0.5, 0.95}) {
    std::vector<double> x, y;
    GenerateCorrelatedPair(20000, rho, &rng, &x, &y);
    EXPECT_NEAR(PearsonNaive(x, y), rho, 0.03) << "rho=" << rho;
  }
}

TEST(WhiteNoiseTest, PairsAreUncorrelated) {
  Rng rng(5);
  TimeSeriesMatrix matrix = GenerateWhiteNoise(4, 20000, &rng);
  for (int64_t i = 0; i < 4; ++i) {
    for (int64_t j = i + 1; j < 4; ++j) {
      EXPECT_NEAR(PearsonNaive(matrix.Row(i), matrix.Row(j)), 0.0, 0.03);
    }
  }
}

// --------------------------------------------------------------- Climate --

TEST(ClimateTest, ShapeNamesAndValidation) {
  ClimateSpec spec;
  spec.num_stations = 6;
  spec.num_hours = 24 * 10;
  const auto dataset = GenerateClimate(spec);
  ASSERT_TRUE(dataset.ok());
  EXPECT_EQ(dataset->data.num_series(), 6);
  EXPECT_EQ(dataset->data.length(), 240);
  EXPECT_EQ(dataset->stations.size(), 6u);
  EXPECT_EQ(dataset->data.SeriesName(0), "10000");

  ClimateSpec bad = spec;
  bad.num_stations = 0;
  EXPECT_FALSE(GenerateClimate(bad).ok());
  bad = spec;
  bad.missing_fraction = 1.5;
  EXPECT_FALSE(GenerateClimate(bad).ok());
  bad = spec;
  bad.weather_persistence = 1.0;
  EXPECT_FALSE(GenerateClimate(bad).ok());
}

TEST(ClimateTest, DeterministicForSeed) {
  ClimateSpec spec;
  spec.num_stations = 4;
  spec.num_hours = 100;
  const auto a = GenerateClimate(spec);
  const auto b = GenerateClimate(spec);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  for (int64_t s = 0; s < 4; ++s) {
    for (int64_t t = 0; t < 100; ++t) {
      EXPECT_DOUBLE_EQ(a->data.Get(s, t), b->data.Get(s, t));
    }
  }
}

TEST(ClimateTest, NearbyStationsMoreCorrelatedThanDistant) {
  ClimateSpec spec;
  spec.num_stations = 24;
  spec.num_hours = 24 * 120;
  spec.seasonal_amplitude = 0.0;  // isolate the weather field
  spec.diurnal_amplitude = 0.0;
  spec.seed = 77;
  const auto dataset = GenerateClimate(spec);
  ASSERT_TRUE(dataset.ok());

  // Average correlation of the 20 closest vs the 20 farthest pairs.
  struct PairDistance {
    double distance;
    double correlation;
  };
  std::vector<PairDistance> pairs;
  for (int64_t i = 0; i < spec.num_stations; ++i) {
    for (int64_t j = i + 1; j < spec.num_stations; ++j) {
      const auto& si = dataset->stations[static_cast<size_t>(i)];
      const auto& sj = dataset->stations[static_cast<size_t>(j)];
      const double dx = si.longitude - sj.longitude;
      const double dy = si.latitude - sj.latitude;
      pairs.push_back({std::sqrt(dx * dx + dy * dy),
                       PearsonNaive(dataset->data.Row(i),
                                    dataset->data.Row(j))});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const PairDistance& a, const PairDistance& b) {
              return a.distance < b.distance;
            });
  double close_mean = 0.0;
  double far_mean = 0.0;
  const size_t k = 20;
  for (size_t p = 0; p < k; ++p) {
    close_mean += pairs[p].correlation;
    far_mean += pairs[pairs.size() - 1 - p].correlation;
  }
  EXPECT_GT(close_mean / k, far_mean / k + 0.1);
}

TEST(ClimateTest, SharedCyclesRaiseAllCorrelations) {
  // With strong seasonal cycles every station pair correlates highly over a
  // long range — the regime in which Dangoron's above-threshold stability
  // thrives on the real data.
  ClimateSpec spec;
  spec.num_stations = 8;
  spec.num_hours = 24 * 200;
  spec.seasonal_amplitude = 15.0;
  spec.weather_stddev = 2.0;
  spec.seed = 31;
  const auto dataset = GenerateClimate(spec);
  ASSERT_TRUE(dataset.ok());
  double min_corr = 1.0;
  for (int64_t i = 0; i < 8; ++i) {
    for (int64_t j = i + 1; j < 8; ++j) {
      min_corr = std::min(min_corr, PearsonNaive(dataset->data.Row(i),
                                                 dataset->data.Row(j)));
    }
  }
  EXPECT_GT(min_corr, 0.5);
}

TEST(ClimateTest, MissingFractionRespected) {
  ClimateSpec spec;
  spec.num_stations = 4;
  spec.num_hours = 24 * 50;
  spec.missing_fraction = 0.1;
  const auto dataset = GenerateClimate(spec);
  ASSERT_TRUE(dataset.ok());
  const double fraction =
      static_cast<double>(dataset->data.CountMissing()) /
      static_cast<double>(spec.num_stations * spec.num_hours);
  EXPECT_NEAR(fraction, 0.1, 0.02);
}

}  // namespace
}  // namespace dangoron
