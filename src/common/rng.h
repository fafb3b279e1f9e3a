#ifndef DANGORON_COMMON_RNG_H_
#define DANGORON_COMMON_RNG_H_

#include <cmath>
#include <cstdint>
#include <numbers>

namespace dangoron {

/// Deterministic 64-bit PCG (pcg64-xsl-rr on a 128-bit LCG state).
///
/// All randomness in the library flows through this generator so that every
/// dataset, workload, and engine run is reproducible from a single seed.
/// It is small enough to copy freely and has no global state.
class Rng {
 public:
  /// Seeds the generator; two Rng created with the same seed produce
  /// identical streams on every platform.
  explicit Rng(uint64_t seed = 0x853c49e6748fea9bULL) {
    NextU64();
    state_ += (static_cast<unsigned __int128>(seed) << 64) |
              (seed * 0x9e3779b97f4a7c15ULL + 1);
    NextU64();
  }

  /// Uniform 64-bit value.
  uint64_t NextU64() {
    state_ = state_ * kMultiplier + kIncrement;
    const uint64_t xored =
        static_cast<uint64_t>(state_ >> 64) ^ static_cast<uint64_t>(state_);
    const unsigned rot = static_cast<unsigned>(state_ >> 122);
    return (xored >> rot) | (xored << ((-rot) & 63));
  }

  /// Uniform in [0, bound). `bound` must be > 0. Uses rejection sampling to
  /// avoid modulo bias.
  uint64_t NextBounded(uint64_t bound) {
    const uint64_t threshold = (-bound) % bound;
    while (true) {
      const uint64_t value = NextU64();
      if (value >= threshold) {
        return value % bound;
      }
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  int64_t NextInt(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(
                    NextBounded(static_cast<uint64_t>(hi - lo + 1)));
  }

  /// Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double NextUniform(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Standard normal via Box-Muller (cached second value).
  double NextGaussian() {
    if (has_cached_gaussian_) {
      has_cached_gaussian_ = false;
      return cached_gaussian_;
    }
    double u1 = NextDouble();
    // Guard against log(0).
    while (u1 <= 1e-300) {
      u1 = NextDouble();
    }
    const double u2 = NextDouble();
    const double radius = std::sqrt(-2.0 * std::log(u1));
    const double angle = 2.0 * std::numbers::pi * u2;
    cached_gaussian_ = radius * std::sin(angle);
    has_cached_gaussian_ = true;
    return radius * std::cos(angle);
  }

  /// Normal with the given mean and standard deviation.
  double NextGaussian(double mean, double stddev) {
    return mean + stddev * NextGaussian();
  }

  /// Rademacher variate: +1 or -1 with equal probability.
  double NextSign() { return (NextU64() & 1u) ? 1.0 : -1.0; }

  /// True with probability `p`.
  bool NextBernoulli(double p) { return NextDouble() < p; }

 private:
  static constexpr unsigned __int128 kMultiplier =
      (static_cast<unsigned __int128>(2549297995355413924ULL) << 64) |
      4865540595714422341ULL;
  static constexpr unsigned __int128 kIncrement =
      (static_cast<unsigned __int128>(6364136223846793005ULL) << 64) |
      1442695040888963407ULL;

  unsigned __int128 state_ = 0;
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace dangoron

#endif  // DANGORON_COMMON_RNG_H_
