#include "router/shard_merge.h"

#include <algorithm>
#include <utility>

namespace dangoron {

ShardMerge::ShardMerge(std::vector<ShardSlice> slices, int64_t num_pairs,
                       const ShardMergeOptions& options)
    : options_(options),
      num_pairs_(num_pairs),
      downstream_(std::make_shared<WindowStreamState>(
          std::max<int64_t>(int64_t{1}, options.queue_capacity))) {
  slices_.reserve(slices.size());
  for (ShardSlice& in : slices) {
    auto slice = std::make_unique<Slice>();
    slice->source = std::move(in.source);
    slice->pair_begin = in.pair_begin;
    slice->pair_end = in.pair_end;
    slice->label = std::move(in.label);
    slice->shard_id = in.shard_id;
    slice->base_window = in.base_window;
    slice->next_window = in.base_window;
    slices_.push_back(std::move(slice));
  }
  active_readers_ = static_cast<int>(slices_.size());
  if (slices_.empty()) {
    // Degenerate but legal: an empty merge is an empty Ok stream.
    downstream_->Finish(Status::Ok(), StreamingSummary{});
    return;
  }
  // Under the lock: a reader that dies instantly appends replacement
  // threads to readers_ from its own thread, racing this loop otherwise.
  MutexLock lock(mutex_);
  readers_.reserve(slices_.size());
  for (size_t s = 0; s < slices_.size(); ++s) {
    readers_.emplace_back([this, s] { ReaderLoop(static_cast<int>(s)); });
  }
}

ShardMerge::~ShardMerge() {
  Cancel();
  // Failover grows readers_ while we drain it; swap out batches until a
  // sweep finds it empty (cancelled_ stops new spawns, so this terminates).
  while (true) {
    std::vector<std::thread> batch;
    {
      MutexLock lock(mutex_);
      batch.swap(readers_);
    }
    if (batch.empty()) {
      break;
    }
    for (std::thread& reader : batch) {
      if (reader.joinable()) {
        reader.join();
      }
    }
  }
}

std::optional<StreamedWindow> ShardMerge::Next() {
  return downstream_->Next();
}

void ShardMerge::Cancel() {
  MutexLock lock(mutex_);
  if (cancelled_ || (active_readers_ == 0 && downstream_->finished())) {
    return;
  }
  cancelled_ = true;
  // Upstream cancels are best-effort pokes; each shard still finishes its
  // stream with a terminal status, which is what unblocks the readers.
  for (const auto& slice : slices_) {
    slice->source->Cancel();
  }
  downstream_->Cancel();
  progress_cv_.NotifyAll();
}

Status ShardMerge::status() const { return downstream_->status(); }

WireSummary ShardMerge::summary() const {
  MutexLock lock(mutex_);
  return WireSummary{downstream_->summary(), windows_merged_};
}

int64_t ShardMerge::failovers() const {
  MutexLock lock(mutex_);
  return failovers_used_;
}

int64_t ShardMerge::num_shards() const {
  MutexLock lock(mutex_);
  return static_cast<int64_t>(slices_.size());
}

Status ShardMerge::PrefixedStatus(int slice_index, const Status& status) const {
  const Slice& slice = *slices_[static_cast<size_t>(slice_index)];
  std::string prefix = "shard " + std::to_string(slice_index);
  if (!slice.label.empty()) {
    prefix += " (" + slice.label + ")";
  }
  return Status(status.code(), prefix + ": " + status.message());
}

bool ShardMerge::WindowCompleteLocked(const Pending& pending) const {
  return pending.covered == num_pairs_ &&
         (num_pairs_ > 0 || !pending.parts.empty());
}

void ShardMerge::MergeFailLocked(const Status& status) {
  if (failed_ || cancelled_) {
    return;  // first failure wins; a cancel in flight outranks everything
  }
  failed_ = true;
  fail_status_ = status;
  for (const auto& slice : slices_) {
    slice->source->Cancel();
  }
  // Unblock a consumer mid-Next and drop queued windows: a failed merge
  // must not dribble out a partial prefix as if it were the result.
  downstream_->Cancel();
  progress_cv_.NotifyAll();
}

void ShardMerge::HandleShardFailureLocked(int slice_index, const Status& cause,
                                          bool retryable) {
  if (cancelled_ || failed_) {
    return;
  }
  Slice* slice = slices_[static_cast<size_t>(slice_index)].get();
  const bool budget = options_.failover != nullptr &&
                      failovers_used_ < options_.max_failovers &&
                      std::chrono::steady_clock::now() < options_.deadline;
  if (!retryable || !budget) {
    MergeFailLocked(cause);
    return;
  }
  ++failovers_used_;
  slice->done = true;
  slice->failed_over = true;

  ShardFailover failover;
  failover.shard = slice_index;
  failover.shard_id = slice->shard_id;
  failover.label = slice->label;
  failover.pair_begin = slice->pair_begin;
  failover.pair_end = slice->pair_end;
  failover.resume_window = slice->next_window;
  failover.cause = cause;

  // The hook reconnects / re-plans with its own bounded backoff — seconds,
  // potentially. Other readers must keep draining meanwhile.
  mutex_.Unlock();
  Result<std::vector<ShardSlice>> replacements = options_.failover(failover);
  mutex_.Lock();

  if (cancelled_ || failed_) {
    // The merge died while the hook ran; don't leak live replacement
    // streams — cancel them and let their transports wind down unjoined
    // (no reader was ever spawned for them).
    if (replacements.ok()) {
      for (ShardSlice& s : *replacements) {
        if (s.source != nullptr) {
          s.source->Cancel();
        }
      }
    }
    return;
  }
  if (!replacements.ok()) {
    MergeFailLocked(Status(cause.code(),
                           cause.message() + " (failover failed: " +
                               replacements.status().message() + ")"));
    return;
  }
  int64_t covered = 0;
  for (const ShardSlice& s : *replacements) {
    covered += s.pair_end - s.pair_begin;
  }
  if (replacements->empty() || covered != failover.pair_end - failover.pair_begin) {
    MergeFailLocked(Status::Internal(
        "shard merge: failover for shard ", slice_index,
        " returned ranges covering ", covered, " pairs, expected ",
        failover.pair_end - failover.pair_begin));
    return;
  }
  const size_t first_new = slices_.size();
  for (ShardSlice& s : *replacements) {
    auto replacement = std::make_unique<Slice>();
    replacement->source = std::move(s.source);
    replacement->pair_begin = s.pair_begin;
    replacement->pair_end = s.pair_end;
    replacement->label = std::move(s.label);
    replacement->shard_id = s.shard_id;
    // The replacement's upstream query was re-anchored at the resume
    // window, so its stream counts locally from 0; the merge re-bases.
    replacement->base_window = failover.resume_window;
    replacement->next_window = failover.resume_window;
    slices_.push_back(std::move(replacement));
  }
  for (size_t s = first_new; s < slices_.size(); ++s) {
    ++active_readers_;
    readers_.emplace_back([this, s] { ReaderLoop(static_cast<int>(s)); });
  }
  progress_cv_.NotifyAll();
}

void ShardMerge::EmitReadyLocked() {
  while (!cancelled_ && !failed_) {
    auto it = pending_.begin();
    if (it == pending_.end() || it->first != next_emit_ ||
        !WindowCompleteLocked(it->second)) {
      break;
    }
    // Concatenate in ascending pair-range order — which is canonical
    // EdgeOrder, so the merged window needs no sort.
    StreamedWindow merged;
    merged.window_index = it->first;
    size_t total = 0;
    for (const auto& [begin, part] : it->second.parts) {
      total += part == nullptr ? 0 : part->size();
    }
    auto edges = std::make_shared<std::vector<Edge>>();
    edges->reserve(total);
    for (const auto& [begin, part] : it->second.parts) {
      if (part != nullptr) {
        edges->insert(edges->end(), part->begin(), part->end());
      }
    }
    merged.edges = std::move(edges);
    pending_.erase(it);
    ++next_emit_;
    ++windows_merged_;
    progress_cv_.NotifyAll();

    mutex_.Unlock();
    const PushResult pushed = downstream_->PushUntil(
        std::move(merged), std::chrono::steady_clock::time_point::max());
    mutex_.Lock();
    if (pushed != PushResult::kPushed) {
      // The consumer cancelled the merged stream while we were blocked on
      // its queue; fan the cancel out to the shards.
      if (!cancelled_) {
        cancelled_ = true;
        for (const auto& slice : slices_) {
          slice->source->Cancel();
        }
        progress_cv_.NotifyAll();
      }
      break;
    }
  }
}

void ShardMerge::FinishLocked() {
  Status terminal = Status::Ok();
  if (failed_) {
    terminal = fail_status_;
  } else if (cancelled_) {
    terminal = Status::Cancelled("shard merge cancelled");
  } else if (!pending_.empty()) {
    terminal = Status::Internal(
        "shard merge: shards disagreed on the window count — ",
        pending_.size(), " windows never completed (first stuck index ",
        pending_.begin()->first, ")");
  }
  // The per-slice terminal summaries are stable: every reader reached its
  // source's terminal status before exiting. Failed-over slices still
  // count — their windows were delivered and merged. The prepare counts as
  // cached only when every slice's was.
  StreamingSummary rollup;
  rollup.prepared_from_cache = !slices_.empty();
  for (const auto& slice : slices_) {
    const WireSummary s = slice->source->summary();
    rollup.windows_from_cache += s.windows_from_cache;
    rollup.windows_computed += s.windows_computed;
    rollup.windows_joined += s.windows_joined;
    rollup.cells_jumped += s.cells_jumped;
    rollup.jumps += s.jumps;
    if (s.tier_used == ServeTier::kApprox) {
      rollup.tier_used = ServeTier::kApprox;
    }
    rollup.degraded = rollup.degraded || s.degraded;
    rollup.prepared_from_cache =
        rollup.prepared_from_cache && s.prepared_from_cache;
  }
  downstream_->Finish(terminal, rollup);
}

void ShardMerge::ReaderLoop(int slice_index) {
  // Explicit Lock/Unlock: the loop holds mutex_ at its head and at every
  // break, dropping it only around the blocking source->Next() — a shape a
  // scoped guard cannot express. Thread-safety analysis checks the pairing.
  mutex_.Lock();
  Slice* slice = slices_[static_cast<size_t>(slice_index)].get();
  while (true) {
    mutex_.Unlock();
    Result<std::optional<StreamedWindow>> next = slice->source->Next();
    mutex_.Lock();

    if (!next.ok()) {
      // A transport/protocol failure: the shard process is gone or
      // babbling — always a failover candidate.
      HandleShardFailureLocked(slice_index,
                               PrefixedStatus(slice_index, next.status()),
                               /*retryable=*/true);
      break;
    }
    if (!next->has_value()) {
      const Status verdict = slice->source->result_status();
      if (!verdict.ok() && !cancelled_) {
        // Terminal Unavailable means the shard died under the query (e.g.
        // its process was killed between frames) — retryable. Any other
        // verdict (FailedPrecondition fingerprint drift, Internal, ...)
        // would recur on a replacement; fail fast.
        HandleShardFailureLocked(
            slice_index, PrefixedStatus(slice_index, verdict),
            /*retryable=*/verdict.code() == StatusCode::kUnavailable);
        break;
      }
      slice->done = true;
      slice->done_ok = verdict.ok();
      // Any window this slice never delivered can no longer complete.
      if (!failed_ && !cancelled_ && slice->done_ok && !pending_.empty() &&
          pending_.rbegin()->first >= slice->next_window) {
        MergeFailLocked(Status::Internal(
            "shard merge: shard ", slice_index, " finished after window ",
            slice->next_window, " while others delivered ahead of it"));
      }
      break;
    }
    if (cancelled_ || failed_) {
      // Upstream Cancel already asked the stream to finish; dropping its
      // remaining windows is the transport's job. Just exit.
      break;
    }

    StreamedWindow window = std::move(**next);
    const int64_t k = slice->base_window + window.window_index;
    if (k != slice->next_window) {
      MergeFailLocked(Status::Internal(
          "shard merge: shard ", slice_index, " delivered window ", k,
          " out of order (expected ", slice->next_window, ")"));
      break;
    }
    slice->next_window = k + 1;

    // A window a finished slice never reached can never complete (ranges
    // of failed-over slices live on through their replacements, so those
    // don't count).
    bool orphaned = false;
    for (const auto& other : slices_) {
      if (other->done_ok && other->next_window <= k) {
        orphaned = true;
        break;
      }
    }
    if (orphaned) {
      MergeFailLocked(Status::Internal(
          "shard merge: window ", k, " can never complete — a shard "
          "finished before delivering it"));
      break;
    }

    // Bounded skew: wait for the emission frontier before running further
    // ahead of the slowest slice.
    while (!cancelled_ && !failed_ &&
           k >= next_emit_ + options_.max_skew_windows) {
      progress_cv_.Wait(mutex_);
    }
    if (cancelled_ || failed_) {
      break;
    }

    Pending& slot = pending_[k];
    // emplace dedups by pair range: if a failover race redelivers a part
    // the dead shard already supplied, first delivery wins and the
    // duplicate is dropped — re-dispatch can never double-emit an edge.
    auto [part_it, inserted] =
        slot.parts.emplace(slice->pair_begin, std::move(window.edges));
    if (inserted) {
      slot.covered += slice->pair_end - slice->pair_begin;
    }
    if (WindowCompleteLocked(slot) && k == next_emit_ && !emitting_) {
      emitting_ = true;
      EmitReadyLocked();
      emitting_ = false;
      progress_cv_.NotifyAll();
    }
  }

  // Every break above exits with mutex_ held.
  if (--active_readers_ == 0) {
    // Late completions may have piled up behind an emitter that bailed on
    // cancel/failure; the terminal path never emits, it only settles.
    FinishLocked();
  }
  mutex_.Unlock();
}

}  // namespace dangoron
