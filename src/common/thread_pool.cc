#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>

#include "common/logging.h"

namespace dangoron {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) {
      num_threads = 1;
    }
  }
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    shutting_down_ = true;
  }
  work_available_.NotifyAll();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::Schedule(std::function<void()> task) {
  {
    MutexLock lock(mutex_);
    CHECK(!shutting_down_) << "Schedule() after shutdown";
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_available_.NotifyOne();
}

void ThreadPool::Wait() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) {
    work_done_.Wait(mutex_);
  }
}

void ThreadPool::ParallelFor(int64_t num_blocks,
                             const std::function<void(int64_t)>& body) {
  if (num_blocks <= 0) {
    return;
  }
  if (num_threads() == 1 || num_blocks == 1) {
    for (int64_t i = 0; i < num_blocks; ++i) {
      body(i);
    }
    return;
  }
  // Per-call completion state instead of the pool-global in_flight_ counter:
  // the caller claims blocks from the shared atomic alongside the scheduled
  // helpers, so the loop drains even when the caller *is* a pool worker and
  // every other worker is busy — waiting on the global counter from a worker
  // would deadlock (the waiting task is itself in flight).
  struct ForState {
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> completed{0};
    int64_t total = 0;
    Mutex mutex;
    CondVar done;
  };
  auto state = std::make_shared<ForState>();
  state->total = num_blocks;
  const std::function<void(int64_t)>* body_ptr = &body;

  // Helpers only dereference `body_ptr` after claiming a block, and every
  // block is claimed before the caller returns, so a helper that dequeues
  // late finds the work exhausted and never touches the dangling pointer
  // (the shared state keeps its own lifetime).
  auto run_blocks = [state, body_ptr] {
    int64_t i;
    while ((i = state->next.fetch_add(1, std::memory_order_relaxed)) <
           state->total) {
      (*body_ptr)(i);
      if (state->completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          state->total) {
        MutexLock lock(state->mutex);
        state->done.NotifyAll();
      }
    }
  };

  const int64_t helpers =
      std::min<int64_t>(num_threads(), num_blocks) - 1;
  for (int64_t h = 0; h < helpers; ++h) {
    Schedule(run_blocks);
  }
  run_blocks();
  MutexLock lock(state->mutex);
  while (state->completed.load(std::memory_order_acquire) != state->total) {
    state->done.Wait(state->mutex);
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!shutting_down_ && queue_.empty()) {
        work_available_.Wait(mutex_);
      }
      if (queue_.empty()) {
        // shutting_down_ is set and no work remains.
        return;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      MutexLock lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) {
        work_done_.NotifyAll();
      }
    }
  }
}

void ForEachTask(ThreadPool* pool, int64_t count,
                 const std::function<void(int64_t)>& body) {
  if (pool != nullptr) {
    pool->ParallelFor(count, body);
    return;
  }
  for (int64_t i = 0; i < count; ++i) {
    body(i);
  }
}

}  // namespace dangoron
