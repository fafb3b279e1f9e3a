#ifndef DANGORON_COMMON_DEADLINE_H_
#define DANGORON_COMMON_DEADLINE_H_

#include <chrono>
#include <limits>

namespace dangoron {

/// An absolute request deadline threaded through the serving stack — from
/// `QueryRequest::deadline_ms` at admission down to the exact sweep's band
/// boundaries — so every stage asks the same cheap question: has this
/// request's budget run out? A default-constructed token carries no
/// deadline (`expired()` is always false, `remaining_ms()` is +inf), which
/// keeps deadline-free requests off the clock entirely.
class DeadlineToken {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// No deadline.
  DeadlineToken() = default;

  /// Wraps an absolute deadline; `TimePoint::max()` means none (the
  /// sentinel `RequestDeadline` already produces).
  explicit DeadlineToken(TimePoint deadline) : deadline_(deadline) {}

  bool has_deadline() const { return deadline_ != TimePoint::max(); }

  /// The absolute deadline; `TimePoint::max()` when none — the sentinel
  /// condition-variable waits already understand.
  TimePoint deadline() const { return deadline_; }

  /// True once the deadline has passed (never for a deadline-free token).
  bool expired() const {
    return has_deadline() && std::chrono::steady_clock::now() >= deadline_;
  }

  /// Milliseconds until the deadline (negative once passed; +inf when
  /// none) — what cost estimates compare against.
  double remaining_ms() const {
    if (!has_deadline()) {
      return std::numeric_limits<double>::infinity();
    }
    return std::chrono::duration<double, std::milli>(
               deadline_ - std::chrono::steady_clock::now())
        .count();
  }

 private:
  TimePoint deadline_ = TimePoint::max();
};

}  // namespace dangoron

#endif  // DANGORON_COMMON_DEADLINE_H_
