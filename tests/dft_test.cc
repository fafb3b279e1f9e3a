#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <vector>

#include "common/rng.h"
#include "dft/fft.h"

namespace dangoron {
namespace {

using Cplx = std::complex<double>;

std::vector<Cplx> RandomComplexVector(int64_t n, Rng* rng) {
  std::vector<Cplx> values(static_cast<size_t>(n));
  for (Cplx& v : values) {
    v = Cplx(rng->NextGaussian(), rng->NextGaussian());
  }
  return values;
}

double MaxAbsDiff(const std::vector<Cplx>& a, const std::vector<Cplx>& b) {
  double max_diff = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(a[i] - b[i]));
  }
  return max_diff;
}

TEST(FftTest, EmptyInputIsError) {
  std::vector<Cplx> empty;
  EXPECT_FALSE(Fft(&empty, false).ok());
  EXPECT_FALSE(Fft(nullptr, false).ok());
}

TEST(FftTest, SizeOneIsIdentity) {
  std::vector<Cplx> data = {Cplx(3.0, -2.0)};
  ASSERT_TRUE(Fft(&data, false).ok());
  EXPECT_NEAR(std::abs(data[0] - Cplx(3.0, -2.0)), 0.0, 1e-12);
}

TEST(FftTest, KnownFourPointTransform) {
  // DFT of [1, 0, 0, 0] is all-ones.
  std::vector<Cplx> data = {Cplx(1, 0), Cplx(0, 0), Cplx(0, 0), Cplx(0, 0)};
  ASSERT_TRUE(Fft(&data, false).ok());
  for (const Cplx& v : data) {
    EXPECT_NEAR(std::abs(v - Cplx(1, 0)), 0.0, 1e-12);
  }
}

TEST(FftTest, ConstantSignalConcentratesAtDc) {
  std::vector<Cplx> data(16, Cplx(2.0, 0.0));
  ASSERT_TRUE(Fft(&data, false).ok());
  EXPECT_NEAR(data[0].real(), 32.0, 1e-10);
  for (size_t k = 1; k < data.size(); ++k) {
    EXPECT_NEAR(std::abs(data[k]), 0.0, 1e-10);
  }
}

// Roundtrip and oracle agreement across a size sweep covering powers of two
// (radix-2 path) and awkward composite/prime sizes (Bluestein path).
class FftSizeSweep : public ::testing::TestWithParam<int64_t> {};

TEST_P(FftSizeSweep, MatchesDirectDft) {
  const int64_t n = GetParam();
  Rng rng(1000 + static_cast<uint64_t>(n));
  const std::vector<Cplx> input = RandomComplexVector(n, &rng);
  const std::vector<Cplx> expected = DirectDft(input, /*inverse=*/false);
  std::vector<Cplx> actual = input;
  ASSERT_TRUE(Fft(&actual, /*inverse=*/false).ok());
  EXPECT_LT(MaxAbsDiff(actual, expected), 1e-7 * std::sqrt(n));
}

TEST_P(FftSizeSweep, RoundtripRecoversInput) {
  const int64_t n = GetParam();
  Rng rng(2000 + static_cast<uint64_t>(n));
  const std::vector<Cplx> input = RandomComplexVector(n, &rng);
  std::vector<Cplx> data = input;
  ASSERT_TRUE(Fft(&data, /*inverse=*/false).ok());
  ASSERT_TRUE(Fft(&data, /*inverse=*/true).ok());
  EXPECT_LT(MaxAbsDiff(data, input), 1e-9 * std::sqrt(n));
}

TEST_P(FftSizeSweep, ParsevalHolds) {
  const int64_t n = GetParam();
  Rng rng(3000 + static_cast<uint64_t>(n));
  const std::vector<Cplx> input = RandomComplexVector(n, &rng);
  double time_energy = 0.0;
  for (const Cplx& v : input) {
    time_energy += std::norm(v);
  }
  std::vector<Cplx> data = input;
  ASSERT_TRUE(Fft(&data, /*inverse=*/false).ok());
  double freq_energy = 0.0;
  for (const Cplx& v : data) {
    freq_energy += std::norm(v);
  }
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-6 * time_energy * n);
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftSizeSweep,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 12, 16, 17, 30,
                                           32, 60, 64, 100, 127, 128, 360,
                                           365, 512, 1000));

TEST(FftTest, LinearityOnRandomInputs) {
  Rng rng(99);
  const int64_t n = 64;
  const std::vector<Cplx> x = RandomComplexVector(n, &rng);
  const std::vector<Cplx> y = RandomComplexVector(n, &rng);
  std::vector<Cplx> combo(static_cast<size_t>(n));
  const Cplx alpha(1.5, -0.5);
  for (int64_t i = 0; i < n; ++i) {
    combo[static_cast<size_t>(i)] = alpha * x[static_cast<size_t>(i)] +
                                    y[static_cast<size_t>(i)];
  }
  std::vector<Cplx> fx = x;
  std::vector<Cplx> fy = y;
  std::vector<Cplx> fcombo = combo;
  ASSERT_TRUE(Fft(&fx, false).ok());
  ASSERT_TRUE(Fft(&fy, false).ok());
  ASSERT_TRUE(Fft(&fcombo, false).ok());
  for (int64_t i = 0; i < n; ++i) {
    const Cplx expected =
        alpha * fx[static_cast<size_t>(i)] + fy[static_cast<size_t>(i)];
    EXPECT_NEAR(std::abs(fcombo[static_cast<size_t>(i)] - expected), 0.0,
                1e-8);
  }
}

// ------------------------------------------------------------- Real DFT --

TEST(RealDftTest, HalfSpectrumSizes) {
  Rng rng(5);
  for (const int64_t n : {2, 3, 8, 9, 16, 17}) {
    std::vector<double> input(static_cast<size_t>(n));
    for (double& v : input) {
      v = rng.NextGaussian();
    }
    const auto spectrum = RealDft(input);
    ASSERT_TRUE(spectrum.ok());
    EXPECT_EQ(static_cast<int64_t>(spectrum->size()), n / 2 + 1);
  }
}

TEST(RealDftTest, EmptyInputIsError) {
  EXPECT_FALSE(RealDft(std::span<const double>()).ok());
}

class RealDftRoundtrip : public ::testing::TestWithParam<int64_t> {};

TEST_P(RealDftRoundtrip, InverseRecoversSignal) {
  const int64_t n = GetParam();
  Rng rng(4000 + static_cast<uint64_t>(n));
  std::vector<double> input(static_cast<size_t>(n));
  for (double& v : input) {
    v = rng.NextGaussian();
  }
  const auto spectrum = RealDft(input);
  ASSERT_TRUE(spectrum.ok());
  const auto recovered = InverseRealDft(*spectrum, n);
  ASSERT_TRUE(recovered.ok());
  for (int64_t t = 0; t < n; ++t) {
    EXPECT_NEAR((*recovered)[static_cast<size_t>(t)],
                input[static_cast<size_t>(t)], 1e-8)
        << "n=" << n << " t=" << t;
  }
}

TEST_P(RealDftRoundtrip, MatchesDirectDftOracle) {
  const int64_t n = GetParam();
  Rng rng(5000 + static_cast<uint64_t>(n));
  std::vector<double> input(static_cast<size_t>(n));
  std::vector<Cplx> as_complex(static_cast<size_t>(n));
  for (int64_t t = 0; t < n; ++t) {
    input[static_cast<size_t>(t)] = rng.NextGaussian();
    as_complex[static_cast<size_t>(t)] =
        Cplx(input[static_cast<size_t>(t)], 0.0);
  }
  const auto spectrum = RealDft(input);
  ASSERT_TRUE(spectrum.ok());
  const std::vector<Cplx> oracle = DirectDft(as_complex, /*inverse=*/false);
  for (int64_t k = 0; k <= n / 2; ++k) {
    EXPECT_NEAR(std::abs((*spectrum)[static_cast<size_t>(k)] -
                         oracle[static_cast<size_t>(k)]),
                0.0, 1e-7)
        << "n=" << n << " k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RealDftRoundtrip,
                         ::testing::Values(2, 3, 4, 7, 8, 15, 16, 64, 100,
                                           365, 512));

TEST(InverseRealDftTest, RejectsWrongSpectrumSize) {
  std::vector<Cplx> spectrum(4, Cplx(0, 0));
  EXPECT_FALSE(InverseRealDft(spectrum, 16).ok());  // needs 9
  EXPECT_FALSE(InverseRealDft(spectrum, 0).ok());
  EXPECT_FALSE(InverseRealDft(spectrum, -3).ok());
}

TEST(InverseRealDftTest, RejectsComplexDc) {
  std::vector<Cplx> spectrum(5, Cplx(0, 0));
  spectrum[0] = Cplx(1.0, 0.5);  // DC must be real
  EXPECT_FALSE(InverseRealDft(spectrum, 8).ok());
}

TEST(InverseRealDftTest, RejectsComplexNyquistForEvenN) {
  std::vector<Cplx> spectrum(5, Cplx(0, 0));
  spectrum[4] = Cplx(1.0, 0.5);  // Nyquist must be real for n=8
  EXPECT_FALSE(InverseRealDft(spectrum, 8).ok());
}

TEST(InverseRealDftTest, PureToneReconstruction) {
  // Half spectrum with a single unit coefficient at bin 1 must give a
  // cosine: x_t = (2/n) * cos(2 pi t / n).
  const int64_t n = 16;
  std::vector<Cplx> spectrum(static_cast<size_t>(n / 2 + 1), Cplx(0, 0));
  spectrum[1] = Cplx(1.0, 0.0);
  const auto series = InverseRealDft(spectrum, n);
  ASSERT_TRUE(series.ok());
  for (int64_t t = 0; t < n; ++t) {
    const double expected =
        2.0 / static_cast<double>(n) *
        std::cos(2.0 * M_PI * static_cast<double>(t) / static_cast<double>(n));
    EXPECT_NEAR((*series)[static_cast<size_t>(t)], expected, 1e-10);
  }
}

}  // namespace
}  // namespace dangoron
