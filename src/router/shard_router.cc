#include "router/shard_router.h"

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/failpoint.h"
#include "common/rng.h"
#include "corr/sweep_kernel.h"

namespace dangoron {

namespace {

/// ShardWindowSource over one WireClient draining one shard's response.
class WireClientSource final : public ShardWindowSource {
 public:
  explicit WireClientSource(std::unique_ptr<WireClient> client)
      : client_(std::move(client)) {}

  Result<std::optional<StreamedWindow>> Next() override {
    // Chaos seam: `router.stream_read=error:...` makes a healthy shard
    // look like it died between frames — the merge's failover trigger.
    if (Status injected = DANGORON_FAILPOINT_STATUS("router.stream_read");
        !injected.ok()) {
      return injected;
    }
    return client_->Next();
  }

  Status result_status() const override { return client_->result_status(); }

  WireSummary summary() const override { return client_->summary(); }

  void Cancel() override {
    // WireClient::Cancel is the documented cross-thread exception; a failed
    // cancel write means the connection is already dead, which terminates
    // the reader through Next anyway.
    (void)client_->Cancel();
  }

 private:
  std::unique_ptr<WireClient> client_;
};

/// An already-terminal Ok source: the replacement for a range whose shard
/// died after delivering every window (nothing left to resume).
class DrainedSource final : public ShardWindowSource {
 public:
  Result<std::optional<StreamedWindow>> Next() override {
    return std::optional<StreamedWindow>();
  }
  Status result_status() const override { return Status::Ok(); }
  WireSummary summary() const override { return WireSummary{}; }
  void Cancel() override {}
};

}  // namespace

std::vector<std::pair<int64_t, int64_t>> SplitPairRanges(int64_t num_pairs,
                                                         int shards) {
  std::vector<std::pair<int64_t, int64_t>> ranges;
  if (num_pairs <= 0 || shards <= 1) {
    ranges.emplace_back(0, std::max<int64_t>(num_pairs, 0));
    return ranges;
  }
  const int64_t num_tiles =
      (num_pairs + kSweepTilePairs - 1) / kSweepTilePairs;
  const int64_t k = std::min<int64_t>(shards, num_tiles);
  const int64_t tiles_per_shard = num_tiles / k;
  const int64_t remainder = num_tiles % k;
  int64_t tile = 0;
  for (int64_t s = 0; s < k; ++s) {
    const int64_t take = tiles_per_shard + (s < remainder ? 1 : 0);
    const int64_t begin = tile * kSweepTilePairs;
    tile += take;
    const int64_t end = std::min(num_pairs, tile * kSweepTilePairs);
    ranges.emplace_back(begin, end);
  }
  return ranges;
}

ShardRouter::ShardRouter(ShardRouterOptions options)
    : options_(std::move(options)),
      health_(std::max<size_t>(options_.shards.size(), size_t{1})) {}

std::string ShardRouter::LabelFor(int shard) const {
  if (options_.shards.empty()) {
    return "override";
  }
  const ShardEndpoint& endpoint =
      options_.shards[static_cast<size_t>(shard)];
  return endpoint.host + ":" + std::to_string(endpoint.port);
}

ShardHealth ShardRouter::health(int shard) const {
  MutexLock lock(health_mutex_);
  return health_[static_cast<size_t>(shard)].state;
}

void ShardRouter::MarkShardUp(int shard) {
  // The bounds check reads health_ too, so it belongs under the lock (the
  // vector is sized once in the constructor, but the analysis — rightly —
  // has no way to know that).
  MutexLock lock(health_mutex_);
  if (shard < 0 || static_cast<size_t>(shard) >= health_.size()) {
    return;
  }
  HealthState& state = health_[static_cast<size_t>(shard)];
  state.state = ShardHealth::kHealthy;
  state.consecutive_failures = 0;
}

bool ShardRouter::TryAdmit(int shard) {
  MutexLock lock(health_mutex_);
  HealthState& state = health_[static_cast<size_t>(shard)];
  if (state.state != ShardHealth::kDown) {
    return true;
  }
  const auto now = std::chrono::steady_clock::now();
  if (now < state.open_until) {
    return false;
  }
  // Half-open: admit this one probe, and push the window out so a failing
  // shard is not hammered by every concurrent query at once.
  state.open_until =
      now + std::chrono::milliseconds(options_.breaker_open_ms);
  return true;
}

void ShardRouter::RecordSuccess(int shard) {
  MutexLock lock(health_mutex_);
  HealthState& state = health_[static_cast<size_t>(shard)];
  state.state = ShardHealth::kHealthy;
  state.consecutive_failures = 0;
}

void ShardRouter::RecordFailure(int shard) {
  MutexLock lock(health_mutex_);
  HealthState& state = health_[static_cast<size_t>(shard)];
  ++state.consecutive_failures;
  if (state.consecutive_failures >= options_.failure_threshold) {
    state.state = ShardHealth::kDown;
    state.open_until =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(options_.breaker_open_ms);
  } else {
    state.state = ShardHealth::kSuspect;
  }
}

Result<std::unique_ptr<WireClient>> ShardRouter::Connect(int shard) {
  if (options_.connect_override) {
    return options_.connect_override(shard);
  }
  const ShardEndpoint& endpoint =
      options_.shards[static_cast<size_t>(shard)];
  return WireClient::ConnectTcp(endpoint.host, endpoint.port,
                                options_.client);
}

Result<std::unique_ptr<WireClient>> ShardRouter::ConnectWithRetry(
    int shard, std::chrono::steady_clock::time_point deadline) {
  // Deterministic-per-process jitter stream, decorrelated across shards
  // and attempts — the PR 6 retry idiom.
  static std::atomic<uint64_t> retry_seq{0};
  Rng jitter(0x8a5cd789635d2dffULL ^
             (static_cast<uint64_t>(shard) << 32) ^
             retry_seq.fetch_add(1, std::memory_order_relaxed));
  int attempt = 0;
  while (true) {
    Result<std::unique_ptr<WireClient>> client = [&] {
      if (Status injected = DANGORON_FAILPOINT_STATUS("router.connect");
          !injected.ok()) {
        return Result<std::unique_ptr<WireClient>>(std::move(injected));
      }
      return Connect(shard);
    }();
    if (client.ok()) {
      return client;
    }
    ++attempt;
    const auto now = std::chrono::steady_clock::now();
    if (attempt > options_.connect_retries || now >= deadline) {
      return client;
    }
    double backoff_ms = static_cast<double>(options_.connect_backoff_ms) *
                        static_cast<double>(int64_t{1} << (attempt - 1)) *
                        (0.5 + jitter.NextDouble());
    if (deadline != std::chrono::steady_clock::time_point::max()) {
      const double remaining_ms =
          std::chrono::duration<double, std::milli>(deadline - now).count();
      backoff_ms = std::min(backoff_ms, std::max(0.0, remaining_ms));
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(backoff_ms));
  }
}

std::vector<int> ShardRouter::AdmittedShards(int exclude) {
  std::vector<int> admitted;
  for (int s = 0; s < Fanout(); ++s) {
    if (s != exclude && TryAdmit(s)) {
      admitted.push_back(s);
    }
  }
  return admitted;
}

Result<std::vector<ShardSlice>> ShardRouter::Place(
    const WireRequest& request, int64_t num_pairs, int64_t begin, int64_t end,
    std::vector<int> candidates,
    std::chrono::steady_clock::time_point deadline) {
  // A shard that fails to connect (after its bounded retries) or to accept
  // the submit drops out, and the range re-splits over the rest — each
  // failure shrinks the set, so the loop terminates.
  Status last_failure = Status::Unavailable(
      "shard router: no admittable shard for pairs [", begin, ", ", end, ")");
  while (!candidates.empty()) {
    const std::vector<std::pair<int64_t, int64_t>> ranges = SplitPairRanges(
        end - begin, static_cast<int>(candidates.size()));
    size_t failed = ranges.size();

    // Connect every part before submitting any, so a late connect failure
    // does not leave earlier shards computing a split about to be redone.
    std::vector<std::unique_ptr<WireClient>> clients;
    for (size_t s = 0; s < ranges.size(); ++s) {
      Result<std::unique_ptr<WireClient>> client =
          ConnectWithRetry(candidates[s], deadline);
      if (!client.ok()) {
        failed = s;
        last_failure = Status::Unavailable(
            "shard router: shard ", candidates[s], " (",
            LabelFor(candidates[s]), ") unreachable: ",
            client.status().message());
        break;
      }
      clients.push_back(std::move(*client));
    }

    std::vector<ShardSlice> slices;
    for (size_t s = 0; s < clients.size() && failed == ranges.size(); ++s) {
      const int shard = candidates[s];
      const int64_t lo = begin + ranges[s].first;
      const int64_t hi = begin + ranges[s].second;
      WireRequest sub = request;  // options inherit verbatim
      if (!(lo == 0 && hi == num_pairs)) {
        sub.query.pair_begin = lo;
        sub.query.pair_end = hi;
      }
      if (Status submitted = clients[s]->Submit(sub); !submitted.ok()) {
        failed = s;
        last_failure = Status::Unavailable(
            "shard router: shard ", shard, " (", LabelFor(shard),
            ") rejected the request: ", submitted.message());
        break;
      }
      slices.push_back(ShardSlice{
          .source = std::make_unique<WireClientSource>(std::move(clients[s])),
          .pair_begin = lo,
          .pair_end = hi,
          .label = LabelFor(shard),
          .shard_id = shard});
    }
    if (failed == ranges.size()) {
      for (size_t s = 0; s < ranges.size(); ++s) {
        RecordSuccess(candidates[s]);  // only the shards the split used
      }
      return slices;
    }
    // Dropped connections and submitted parts close in their destructors;
    // the shards see the disconnect and cancel.
    RecordFailure(candidates[failed]);
    candidates.erase(candidates.begin() + static_cast<std::ptrdiff_t>(failed));
  }
  return last_failure;
}

ShardFailoverFn ShardRouter::MakeFailover(
    WireRequest base, int64_t num_pairs,
    std::chrono::steady_clock::time_point deadline) {
  return [this, base = std::move(base), num_pairs,
          deadline](const ShardFailover& f)
             -> Result<std::vector<ShardSlice>> {
    const int dead = (f.shard_id >= 0 && f.shard_id < Fanout())
                         ? static_cast<int>(f.shard_id)
                         : -1;
    if (dead >= 0) {
      RecordFailure(dead);
    }

    // Re-anchor the query at the first window the dead shard never
    // delivered: window w of the original query starts at start + w*step,
    // and windows are functions of absolute basic-window stats, so the
    // resumed stream's window k is bit-identical to original window
    // resume_window + k.
    WireRequest resumed = base;
    resumed.query.start += f.resume_window * resumed.query.step;
    if (base.options.deadline_ms.has_value()) {
      const int64_t remaining_ms =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count();
      if (remaining_ms <= 0) {
        return Status::DeadlineExceeded(
            "deadline exhausted before the range could be re-dispatched");
      }
      // The replacement gets the *remaining* budget, not a fresh one.
      resumed.options.deadline_ms = remaining_ms;
    }

    if (f.resume_window >= base.query.NumWindows()) {
      // The shard died after its last window, before the terminal status:
      // nothing left to recompute — cover the range with an empty source.
      std::vector<ShardSlice> out;
      out.push_back(ShardSlice{.source = std::make_unique<DrainedSource>(),
                               .pair_begin = f.pair_begin,
                               .pair_end = f.pair_end,
                               .label = f.label,
                               .shard_id = f.shard_id});
      return out;
    }

    // The dead shard itself may be back (supervisor respawn, blip): it
    // resumes the whole range with no re-split. Else the other admittable
    // shards take the range over under the plan-time rule.
    if (dead >= 0 && TryAdmit(dead)) {
      Result<std::vector<ShardSlice>> same = Place(
          resumed, num_pairs, f.pair_begin, f.pair_end, {dead}, deadline);
      if (same.ok()) {
        return same;
      }
    }
    return Place(resumed, num_pairs, f.pair_begin, f.pair_end,
                 AdmittedShards(dead), deadline);
  };
}

Result<std::unique_ptr<ShardMerge>> ShardRouter::Submit(
    const WireRequest& request, int64_t num_pairs) {
  if (options_.shards.empty() && !options_.connect_override) {
    return Status::InvalidArgument("shard router: no shards configured");
  }
  if (request.query.HasPairRestriction()) {
    return Status::InvalidArgument(
        "shard router: the request already carries a pair-range "
        "restriction; the router owns the pair split");
  }
  const auto deadline = RequestDeadline(request.options);
  ASSIGN_OR_RETURN(std::vector<ShardSlice> slices,
                   Place(request, num_pairs, 0, num_pairs, AdmittedShards(-1),
                         deadline));
  ShardMergeOptions merge;
  if (request.options.queue_capacity > 0) {
    merge.queue_capacity = request.options.queue_capacity;
  }
  merge.max_failovers = options_.max_failovers;
  merge.deadline = deadline;
  merge.failover = MakeFailover(request, num_pairs, deadline);
  return std::make_unique<ShardMerge>(std::move(slices), num_pairs, merge);
}

}  // namespace dangoron
