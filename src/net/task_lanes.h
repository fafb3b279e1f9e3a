#ifndef DANGORON_NET_TASK_LANES_H_
#define DANGORON_NET_TASK_LANES_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace dangoron {

/// Priority lane of one network request — the TileSweep taskpool pattern
/// (three priorities over one worker set) applied to query serving:
///
/// - `kHigh`: deadline-tight requests and warm-cache requests (their sketch
///   is resident, so they finish fast — serving them first keeps tail
///   latency flat under a backlog of cold work).
/// - `kMedium`: everything in between — cold requests that carry a
///   deadline.
/// - `kLow`: cold prepares with no deadline: an index build monopolizes the
///   compute pool for tens to hundreds of milliseconds, so it must never
///   queue ahead of a request that could answer in microseconds.
///
/// The wire server classifies each decoded request (see
/// WireServer::ClassifyLane) and posts its handler to the matching lane.
enum class TaskLane : int8_t {
  kHigh = 0,
  kMedium = 1,
  kLow = 2,
};

inline constexpr int kNumTaskLanes = 3;

/// Per-lane counters (snapshot).
struct TaskLaneStats {
  int64_t posted[kNumTaskLanes] = {0, 0, 0};
  int64_t executed[kNumTaskLanes] = {0, 0, 0};
  int64_t queued[kNumTaskLanes] = {0, 0, 0};  ///< waiting right now
};

/// A fixed set of worker threads draining three strictly prioritized FIFO
/// queues: a waking worker always takes the highest non-empty lane, so low
/// work runs only when nothing above it waits. Within a lane, order is
/// FIFO. No preemption — a long low task started before high work arrived
/// runs to completion (the wire server bounds that window by keeping cold
/// prepares, the only long tasks, in the low lane where they cannot occupy
/// every worker: see WireServerOptions::worker_threads).
///
/// Tasks must not block indefinitely on other *queued* tasks (they may
/// block on their own stream's consumer — that is the design: a worker per
/// in-flight response). Thread-safe.
class LanedTaskPool {
 public:
  /// `num_threads` workers (minimum 1).
  explicit LanedTaskPool(int32_t num_threads);

  /// Shutdown() then join.
  ~LanedTaskPool();

  LanedTaskPool(const LanedTaskPool&) = delete;
  LanedTaskPool& operator=(const LanedTaskPool&) = delete;

  /// Enqueues `task` on `lane`. Returns false (task dropped) after
  /// Shutdown.
  bool Post(TaskLane lane, std::function<void()> task);

  /// Stops accepting new tasks, drains every already-queued task, then
  /// joins the workers — on return, all posted work has run and the
  /// counters are final. Idempotent, but must not be called concurrently
  /// with itself or from a worker. Called by the destructor.
  void Shutdown();

  int32_t num_threads() const {
    return static_cast<int32_t>(workers_.size());
  }

  TaskLaneStats stats() const;

 private:
  void WorkerLoop();

  mutable Mutex mutex_;
  CondVar work_cv_;
  std::deque<std::function<void()>> lanes_[kNumTaskLanes] GUARDED_BY(mutex_);
  TaskLaneStats stats_ GUARDED_BY(mutex_);
  bool shutdown_ GUARDED_BY(mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace dangoron

#endif  // DANGORON_NET_TASK_LANES_H_
