#ifndef DANGORON_COMMON_STATUS_H_
#define DANGORON_COMMON_STATUS_H_

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

namespace dangoron {

/// Canonical error space used across the library. Mirrors the usual
/// database-engine convention (RocksDB/Abseil style): functions that can fail
/// return a `Status` (or a `Result<T>`), never throw across API boundaries.
enum class StatusCode : int8_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kOutOfRange = 3,
  kFailedPrecondition = 4,
  kAlreadyExists = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kIoError = 8,
  kDataLoss = 9,
  kCancelled = 10,
  kResourceExhausted = 11,
  kDeadlineExceeded = 12,
  /// A required remote peer cannot be reached (a router's shard backend is
  /// down or refuses connections). Retryable at the caller's discretion —
  /// unlike kIoError, which reports a local I/O failure.
  kUnavailable = 13,
};

/// Returns a stable human-readable name for `code` ("OK", "INVALID_ARGUMENT",
/// ...).
std::string_view StatusCodeToString(StatusCode code);

/// Value-semantic success-or-error type.
///
/// A `Status` is cheap to copy in the success case (no allocation) and carries
/// an explanatory message in the failure case. Typical usage:
///
///   Status DoThing() {
///     if (bad) return Status::InvalidArgument("bad thing: ", detail);
///     return Status::Ok();
///   }
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  template <typename... Args>
  static Status InvalidArgument(Args&&... args) {
    return Make(StatusCode::kInvalidArgument, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status NotFound(Args&&... args) {
    return Make(StatusCode::kNotFound, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status OutOfRange(Args&&... args) {
    return Make(StatusCode::kOutOfRange, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status FailedPrecondition(Args&&... args) {
    return Make(StatusCode::kFailedPrecondition, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Internal(Args&&... args) {
    return Make(StatusCode::kInternal, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status IoError(Args&&... args) {
    return Make(StatusCode::kIoError, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status DataLoss(Args&&... args) {
    return Make(StatusCode::kDataLoss, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Cancelled(Args&&... args) {
    return Make(StatusCode::kCancelled, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status ResourceExhausted(Args&&... args) {
    return Make(StatusCode::kResourceExhausted, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status DeadlineExceeded(Args&&... args) {
    return Make(StatusCode::kDeadlineExceeded, std::forward<Args>(args)...);
  }
  template <typename... Args>
  static Status Unavailable(Args&&... args) {
    return Make(StatusCode::kUnavailable, std::forward<Args>(args)...);
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CODE>: <message>".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  template <typename... Args>
  static Status Make(StatusCode code, Args&&... args) {
    std::string message;
    (message.append(ToPiece(std::forward<Args>(args))), ...);
    return Status(code, std::move(message));
  }

  static std::string ToPiece(std::string_view s) { return std::string(s); }
  static std::string ToPiece(const char* s) { return std::string(s); }
  static std::string ToPiece(const std::string& s) { return s; }
  template <typename T>
  static std::string ToPiece(T value) {
    return std::to_string(value);
  }

  StatusCode code_;
  std::string message_;
};

/// Holds either a value of type `T` or an error `Status`. Accessing the value
/// of an errored result aborts the process (see CHECK in logging.h), so call
/// sites should test `ok()` or use ASSIGN_OR_RETURN.
template <typename T>
class Result {
 public:
  /// Implicit construction from a value or from an error Status keeps call
  /// sites terse: `return value;` / `return Status::NotFound(...)`.
  Result(T value) : value_(std::move(value)) {}          // NOLINT
  Result(Status status) : status_(std::move(status)) {}  // NOLINT

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    AbortIfError();
    return *value_;
  }
  T& value() & {
    AbortIfError();
    return *value_;
  }
  T&& value() && {
    AbortIfError();
    return *std::move(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  void AbortIfError() const {
    if (!status_.ok()) {
      std::fprintf(stderr, "Result accessed with error status: %s\n",
                   status_.ToString().c_str());
      std::abort();
    }
  }

  Status status_;
  std::optional<T> value_;
};

/// Propagates an error Status from an expression: evaluates `expr`; if the
/// resulting Status is not OK, returns it from the enclosing function.
#define RETURN_IF_ERROR(expr)                        \
  do {                                               \
    ::dangoron::Status status_macro_value = (expr);  \
    if (!status_macro_value.ok()) {                  \
      return status_macro_value;                     \
    }                                                \
  } while (0)

#define DANGORON_MACRO_CONCAT_INNER(x, y) x##y
#define DANGORON_MACRO_CONCAT(x, y) DANGORON_MACRO_CONCAT_INNER(x, y)

/// Evaluates `rexpr` (a Result<T>); on error returns the Status, otherwise
/// moves the value into `lhs` (which may be a declaration).
#define ASSIGN_OR_RETURN(lhs, rexpr) \
  ASSIGN_OR_RETURN_IMPL(             \
      DANGORON_MACRO_CONCAT(result_macro_value_, __LINE__), lhs, rexpr)

#define ASSIGN_OR_RETURN_IMPL(result, lhs, rexpr) \
  auto result = (rexpr);                          \
  if (!result.ok()) {                             \
    return result.status();                       \
  }                                               \
  lhs = std::move(result).value()

}  // namespace dangoron

#endif  // DANGORON_COMMON_STATUS_H_
