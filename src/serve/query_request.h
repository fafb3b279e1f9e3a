#ifndef DANGORON_SERVE_QUERY_REQUEST_H_
#define DANGORON_SERVE_QUERY_REQUEST_H_

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/status.h"
#include "engine/query.h"

namespace dangoron {

/// Service tier of one submission.
///
/// - `kExact`: incremental exact evaluation (no Eq. 2 jumping) through the
///   shared window-result cache — byte-stable results that match NaiveEngine
///   under every cache interleaving, and every evaluated window is reusable
///   by overlapping queries. The historical default.
/// - `kApprox`: Eq. 2 temporal jumping per request — the paper's core
///   optimization, for latency-critical clients. Shares the prepared sketch
///   with the exact tier but *bypasses the window-result cache entirely*
///   (reads and writes): a jumped window's edge set depends on the query's
///   range, so publishing it would poison cross-query reuse.
/// - `kAuto`: the server picks — approx when the request's deadline is
///   tighter than its estimate of the exact evaluation cost, exact
///   otherwise (and always exact without a deadline).
enum class ServeTier : int8_t {
  kExact = 0,
  kApprox = 1,
  kAuto = 2,
};

/// Admission policy for a prepare that does not fit the sketch-cache budget.
///
/// - `kRefuse`: reject with ResourceExhausted up front (the PR 3 policy;
///   only active when the server's `refuse_oversized_prepares` is on —
///   otherwise oversized prepares are built and immediately evicted).
/// - `kQueue`: park the request in a bounded deadline-aware wait queue until
///   sketch-cache evictions (or released in-flight handles) free enough
///   budget, the request's deadline passes (DeadlineExceeded), or its
///   stream is cancelled.
enum class AdmissionPolicy : int8_t {
  kRefuse = 0,
  kQueue = 1,
};

/// Graceful-degradation policy of an exact-tier request under pressure.
///
/// - `kOff`: a blown deadline estimate or a mid-query ResourceExhausted
///   surfaces as the failure it is (the historical behavior).
/// - `kAuto`: the server degrades exact -> approx instead of failing: a
///   request whose deadline is tighter than the exact cost estimate is
///   served approx up front, and an exact plan that fails with
///   ResourceExhausted mid-query (admission refusal, budget pressure) is
///   retried on the approx tier while the deadline still has budget.
///   Degraded requests report `tier_used = kApprox` and bump the server's
///   `degraded_to_approx` counter — a late exact answer is worse than an
///   on-time approximate one, but the substitution is never silent.
enum class DegradePolicy : int8_t {
  kOff = 0,
  kAuto = 1,
};

std::string_view ServeTierName(ServeTier tier);
Result<ServeTier> ParseServeTier(const std::string& text);
Result<AdmissionPolicy> ParseAdmissionPolicy(const std::string& text);
Result<DegradePolicy> ParseDegradePolicy(const std::string& text);

/// Canonical defaults of the delivery knobs of `ServeOptions` (the
/// router's merged stream defaults its queue from the same capacity).
inline constexpr int64_t kDefaultStreamQueueCapacity = 8;
inline constexpr int64_t kDefaultMaxBatchWindows = 4;

/// Per-request serving options. Unset optionals fall back to the server's
/// configured defaults (`default_tier` / `admission` in
/// DangoronServerOptions), so a default-constructed ServeOptions reproduces
/// the server's historical behavior exactly.
struct ServeOptions {
  /// Service tier; unset -> the server's `default_tier` (exact by default).
  std::optional<ServeTier> tier;

  /// Latency budget in milliseconds, measured from submission; unset = no
  /// deadline (set values must be > 0 — `Validate` rejects the rest). The
  /// deadline governs admission (a queued request is refused with
  /// DeadlineExceeded once it passes; a request whose deadline already
  /// passed when its task starts fails the same way), the `kAuto` tier
  /// choice, and evaluation itself on both tiers and every surface
  /// (`Submit`, `Query`, `SubmitStreaming`): an exact sweep checks it at
  /// band/window cadence, an approx walk at window cadence, and either
  /// aborts mid-run with DeadlineExceeded after delivering every window
  /// completed before it (exact windows stay cached). A collected request
  /// then returns only the DeadlineExceeded status.
  std::optional<int64_t> deadline_ms;

  /// Admission policy for oversized prepares; unset -> the server's
  /// `admission` default (refuse by default).
  std::optional<AdmissionPolicy> admission;

  /// Degradation policy under pressure (exact tier only); unset -> the
  /// server's `degrade` default (off by default).
  std::optional<DegradePolicy> degrade;

  /// Capacity of the bounded delivery queue between the producer and a
  /// `SubmitStreaming` consumer: when it is full the producer blocks
  /// (backpressure), so a slow consumer bounds the stream's memory at
  /// `queue_capacity` windows instead of the whole result. `Submit` /
  /// `Query` collect into a queue sized to the whole result instead — their
  /// producer is a pool task that must never block on delivery.
  int64_t queue_capacity = kDefaultStreamQueueCapacity;
  /// Cap on the contiguous window run one engine pass claims, on every
  /// surface, rounded up to whole kSweepWindowBand sweep bands (so 1 and 4
  /// both mean one 16-window band — a shorter pass would re-stream the dot
  /// prefixes once per run); 0 = unbounded. Within a run the exact engine
  /// emits window by window — each window is cached, claim-fulfilled and
  /// delivered (non-blocking) the moment it lands — but delivery only
  /// *waits* for a slow consumer between runs, so the cap bounds a
  /// stream's undelivered backlog at queue_capacity plus one run, and
  /// bounds claim granularity toward concurrent identical queries. Serving
  /// evaluates exactly, so run chopping never changes results. Exact tier
  /// only — the approx tier takes no claims.
  int64_t max_batch_windows = kDefaultMaxBatchWindows;
};

/// One submission against the serving layer: the dataset to query, the
/// sliding-window question, and how to serve it. This is the server's one
/// entry point (`Submit` / `SubmitStreaming` / `Query` all take one). Plain
/// data, cheap to copy — and the unit a sharding router serializes to fan
/// a query out across server processes.
struct QueryRequest {
  std::string dataset;
  SlidingQuery query;
  ServeOptions options;

  /// Structural validation of the request envelope — the checks that need
  /// no server state (the query itself is validated against the dataset at
  /// plan time): non-empty dataset name, a set deadline_ms > 0, a positive
  /// queue capacity, a non-negative batch cap. Called by the server on
  /// every submission; exposed so clients can reject bad requests before
  /// paying a round trip.
  Status Validate() const;
};

/// The absolute deadline of `options` measured from `now`;
/// time_point::max() when the request has none, or when `deadline_ms` lies
/// beyond what the clock can represent (a wire client may send any
/// positive value, and the ms -> ns conversion must not overflow).
inline std::chrono::steady_clock::time_point RequestDeadline(
    const ServeOptions& options,
    std::chrono::steady_clock::time_point now =
        std::chrono::steady_clock::now()) {
  using TimePoint = std::chrono::steady_clock::time_point;
  if (!options.deadline_ms.has_value() || *options.deadline_ms <= 0 ||
      *options.deadline_ms >=
          std::chrono::duration_cast<std::chrono::milliseconds>(
              TimePoint::max() - now)
              .count()) {
    return TimePoint::max();
  }
  return now + std::chrono::milliseconds(*options.deadline_ms);
}

}  // namespace dangoron

#endif  // DANGORON_SERVE_QUERY_REQUEST_H_
