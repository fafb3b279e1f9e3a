#ifndef DANGORON_ROUTER_SHARD_ROUTER_H_
#define DANGORON_ROUTER_SHARD_ROUTER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "router/shard_merge.h"
#include "wire/client.h"
#include "wire/wire_format.h"

namespace dangoron {

/// One shard backend (a WireServer fronting a DangoronServer that holds the
/// full dataset — shards replicate data and split compute, see
/// src/router/README.md).
struct ShardEndpoint {
  std::string host = "127.0.0.1";
  int port = 0;
};

/// Splits [0, num_pairs) into at most `shards` contiguous ranges cut at
/// multiples of kSweepTilePairs, balanced to within one tile. Tile-aligned
/// cuts make every shard's sweep tiling coincide with the tiles it would
/// run as part of an unrestricted query, so the sharded decomposition is
/// the engine's own. Fewer ranges come back when there are fewer tiles
/// than shards; num_pairs == 0 yields one empty range.
std::vector<std::pair<int64_t, int64_t>> SplitPairRanges(int64_t num_pairs,
                                                         int shards);

/// The router's per-shard health verdict (see ShardRouter for the
/// transitions).
enum class ShardHealth : int8_t { kHealthy = 0, kSuspect = 1, kDown = 2 };

struct ShardRouterOptions {
  std::vector<ShardEndpoint> shards;

  /// Transport timeouts for each shard connection. Defaults bound connect
  /// and inter-frame read waits so one dead shard fails the merged query
  /// fast (Unavailable) instead of hanging it.
  WireClientOptions client{.connect_timeout_ms = 5000,
                           .read_timeout_ms = 60000};

  /// Extra connect attempts per shard after the first fails — the PR 6
  /// retry shape: exponential backoff with deterministic-seeded jitter,
  /// clipped to the request deadline.
  int connect_retries = 2;

  /// Base backoff before the first reconnect attempt (doubles per retry,
  /// ×[0.5, 1.5) jitter).
  int64_t connect_backoff_ms = 10;

  /// Mid-stream shard deaths one query may ride out by re-dispatching the
  /// dead shard's remaining pair range (ShardMerge failover). 0 restores
  /// the PR 8 first-failure-fails-the-query behavior.
  int max_failovers = 2;

  /// Consecutive failures that take a shard healthy → down (one failure =
  /// suspect). Down shards are skipped at plan time without paying their
  /// connect timeout.
  int failure_threshold = 2;

  /// How long a down shard's circuit stays open. After expiry the next
  /// query admits the shard once as a probe (half-open); success closes
  /// the circuit, failure re-opens it for another window.
  int64_t breaker_open_ms = 2000;

  /// Test/bench seam: when set, shard `i`'s connection comes from this
  /// factory instead of ConnectTcp(shards[i]) — how in-process benchmarks
  /// and tests wire the router over socketpairs without binding ports.
  std::function<Result<std::unique_ptr<WireClient>>(int shard)>
      connect_override;
};

/// Scatter/gather front of K WireServer shards: one WireRequest fans out as
/// K requests over disjoint tile-aligned pair-id ranges, and the K window
/// streams merge back into one (ShardMerge). Connections are per-request (a
/// connection carries one request at a time; pooling is future work), but
/// the router itself is stateful across requests: it tracks per-shard
/// health and must outlive every merge it returns (the merge's failover
/// hook calls back into it).
///
/// Health machine (per shard, under one mutex):
/// - healthy → suspect on one failed connect/submit/stream;
/// - suspect → down after `failure_threshold` consecutive failures, opening
///   the circuit for `breaker_open_ms` — planning skips the shard without
///   paying its connect timeout;
/// - an expired circuit admits the shard once (half-open probe); any
///   success — or an external MarkShardUp (the supervisor's respawn+ready
///   signal) — snaps it back to healthy.
///
/// Failure semantics — one placement rule (Place) at plan time and
/// mid-stream:
/// - a pair range is split over the candidate shards and every part is
///   connected (`connect_retries`, jittered backoff clipped to the
///   deadline) before any is submitted; a shard that still refuses, or
///   rejects its submit, drops out and the range re-splits over the rest
///   (the split is invisible in the merged bytes). Only when no candidate
///   is left does placement fail with Unavailable naming the last failure;
/// - at submit, the candidates are the shards the health machine admits
///   and the range is [0, num_pairs);
/// - after submit, a shard that dies mid-stream (transport error or
///   terminal Unavailable) has its undelivered pair range placed again,
///   resuming from the first window it never delivered: on the same shard
///   alone first, else over the other admittable shards. The merged stream
///   is byte-identical to the unsharded run. After `max_failovers` (or at
///   the deadline, or for non-retryable errors like FailedPrecondition
///   fingerprint drift) the query fails with the original status prefixed
///   `shard N (host:port):`;
/// - Cancel / dropping the merge cancels all upstream streams;
/// - each shard request inherits the original request's options; deadlines
///   carry the *remaining* budget on re-dispatched legs.
class ShardRouter {
 public:
  explicit ShardRouter(ShardRouterOptions options);

  /// Fans `request` out over the shards restricted to disjoint pair ranges
  /// of [0, num_pairs), returns the merged window-ordered stream. The
  /// caller supplies num_pairs = n*(n-1)/2 for the dataset's n series (the
  /// router holds no data; see RouterServer's dataset registry). The
  /// router must outlive the returned merge.
  Result<std::unique_ptr<ShardMerge>> Submit(const WireRequest& request,
                                             int64_t num_pairs);

  /// The health machine's current verdict for one shard (observability +
  /// tests).
  ShardHealth health(int shard) const;

  /// External signal that a shard is back (the serverd supervisor calls
  /// this after a respawned child passes its readiness probe): closes the
  /// circuit immediately instead of waiting out breaker_open_ms.
  void MarkShardUp(int shard);

 private:
  struct HealthState {
    ShardHealth state = ShardHealth::kHealthy;
    int consecutive_failures = 0;
    std::chrono::steady_clock::time_point open_until{};
  };

  Result<std::unique_ptr<WireClient>> Connect(int shard);

  /// Connect with the PR 6 retry shape: up to 1 + connect_retries
  /// attempts, exponential jittered backoff between them, every wait
  /// clipped to `deadline`. Fires the `router.connect` failpoint per
  /// attempt.
  Result<std::unique_ptr<WireClient>> ConnectWithRetry(
      int shard, std::chrono::steady_clock::time_point deadline);

  /// Number of shard indices (1 under connect_override with no endpoints).
  int Fanout() const {
    return options_.shards.empty() ? 1
                                   : static_cast<int>(options_.shards.size());
  }

  /// True when planning may route to the shard now; consumes the half-open
  /// probe slot when the circuit just expired.
  bool TryAdmit(int shard);
  /// Every shard but `exclude` that TryAdmit admits, in index order.
  std::vector<int> AdmittedShards(int exclude);
  void RecordSuccess(int shard);
  void RecordFailure(int shard);

  /// Label for error messages: "host:port", or "override" under
  /// connect_override with no endpoint list.
  std::string LabelFor(int shard) const;

  /// Covers pairs [begin, end) of `request` with streams from
  /// `candidates`: splits the range tile-aligned over them, connects every
  /// part, then submits each restricted to its part. A shard that fails to
  /// connect or submit is recorded against its health and dropped, and the
  /// range re-splits over the rest. The slices come back in pair order.
  Result<std::vector<ShardSlice>> Place(
      const WireRequest& request, int64_t num_pairs, int64_t begin,
      int64_t end, std::vector<int> candidates,
      std::chrono::steady_clock::time_point deadline);

  /// The merge's re-dispatch hook for one query: Place on the dead shard
  /// alone, else over the other admittable shards. `base` is the original
  /// request; `deadline` the absolute budget.
  ShardFailoverFn MakeFailover(
      WireRequest base, int64_t num_pairs,
      std::chrono::steady_clock::time_point deadline);

  const ShardRouterOptions options_;

  mutable Mutex health_mutex_;
  std::vector<HealthState> health_ GUARDED_BY(health_mutex_);
};

}  // namespace dangoron

#endif  // DANGORON_ROUTER_SHARD_ROUTER_H_
