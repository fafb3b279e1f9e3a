#ifndef DANGORON_COMMON_STOPWATCH_H_
#define DANGORON_COMMON_STOPWATCH_H_

#include <chrono>
#include <cstdint>

namespace dangoron {

/// Monotonic wall-clock stopwatch used by the benchmark harness.
class Stopwatch {
 public:
  Stopwatch() : start_(Clock::now()) {}

  /// Restarts the stopwatch.
  void Reset() { start_ = Clock::now(); }

  /// Elapsed time since construction or the last Reset().
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace dangoron

#endif  // DANGORON_COMMON_STOPWATCH_H_
