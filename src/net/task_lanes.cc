#include "net/task_lanes.h"

#include <algorithm>
#include <utility>

namespace dangoron {

LanedTaskPool::LanedTaskPool(int32_t num_threads) {
  const int32_t threads = std::max<int32_t>(1, num_threads);
  workers_.reserve(static_cast<size_t>(threads));
  for (int32_t t = 0; t < threads; ++t) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

LanedTaskPool::~LanedTaskPool() { Shutdown(); }

bool LanedTaskPool::Post(TaskLane lane, std::function<void()> task) {
  const auto l = static_cast<size_t>(lane);
  {
    MutexLock lock(mutex_);
    if (shutdown_) {
      return false;
    }
    lanes_[l].push_back(std::move(task));
    ++stats_.posted[l];
  }
  work_cv_.NotifyOne();
  return true;
}

void LanedTaskPool::Shutdown() {
  {
    MutexLock lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) {
      worker.join();
    }
  }
}

TaskLaneStats LanedTaskPool::stats() const {
  MutexLock lock(mutex_);
  TaskLaneStats snapshot = stats_;
  for (int l = 0; l < kNumTaskLanes; ++l) {
    snapshot.queued[l] = static_cast<int64_t>(lanes_[l].size());
  }
  return snapshot;
}

void LanedTaskPool::WorkerLoop() {
  // Explicit Lock/Unlock instead of a scoped guard: the loop drops the lock
  // around task() and reacquires it, a shape the scoped wrapper cannot
  // express — thread-safety analysis tracks the manual pairing.
  mutex_.Lock();
  while (true) {
    // Strict priority scan: the highest non-empty lane wins every time a
    // worker frees up; lower lanes only drain in the gaps.
    int lane = -1;
    for (int l = 0; l < kNumTaskLanes; ++l) {
      if (!lanes_[l].empty()) {
        lane = l;
        break;
      }
    }
    if (lane < 0) {
      if (shutdown_) {
        mutex_.Unlock();
        return;  // drained — shutdown completes only after queued work ran
      }
      work_cv_.Wait(mutex_);
      continue;
    }
    std::function<void()> task = std::move(lanes_[lane].front());
    lanes_[lane].pop_front();
    ++stats_.executed[lane];
    mutex_.Unlock();
    task();
    mutex_.Lock();
  }
}

}  // namespace dangoron
