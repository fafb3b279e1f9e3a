#ifndef DANGORON_COMMON_MATH_UTILS_H_
#define DANGORON_COMMON_MATH_UTILS_H_

#include <cmath>
#include <cstdint>
#include <span>

namespace dangoron {

/// Clamps `value` into [lo, hi].
inline double Clamp(double value, double lo, double hi) {
  return value < lo ? lo : (value > hi ? hi : value);
}

/// Clamps a correlation into the valid [-1, 1] interval (guards against
/// floating-point drift in sketch combination).
inline double ClampCorrelation(double value) {
  return Clamp(value, -1.0, 1.0);
}

/// True when `value` is a power of two (and > 0).
constexpr bool IsPowerOfTwo(int64_t value) {
  return value > 0 && (value & (value - 1)) == 0;
}

/// Smallest power of two >= value (value >= 1).
int64_t NextPowerOfTwo(int64_t value);

/// Integer ceil(a / b) for positive b.
constexpr int64_t CeilDiv(int64_t a, int64_t b) { return (a + b - 1) / b; }

}  // namespace dangoron

#endif  // DANGORON_COMMON_MATH_UTILS_H_
