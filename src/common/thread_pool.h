#ifndef DANGORON_COMMON_THREAD_POOL_H_
#define DANGORON_COMMON_THREAD_POOL_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/sync.h"

namespace dangoron {

/// Fixed-size worker pool.
///
/// Engines use `ParallelFor` over statically partitioned blocks so results
/// are deterministic regardless of the number of threads: the work
/// decomposition never depends on scheduling order, only the execution
/// interleaving does, and blocks write to disjoint output slots.
///
/// `ParallelFor` is reentrant: a task running on the pool may itself call
/// `ParallelFor` (the serving layer runs whole queries as pool tasks, and
/// each query parallelizes its pair tiles on the same pool). The calling
/// thread claims blocks alongside the workers, so the loop completes even
/// when every worker is busy with other tasks.
class ThreadPool {
 public:
  /// Creates a pool with `num_threads` workers (>= 1). `num_threads == 0`
  /// selects the hardware concurrency.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task for asynchronous execution.
  void Schedule(std::function<void()> task);

  /// Enqueues `fn` and returns a future for its result — the submission
  /// primitive of the serving layer. The future's wait is safe from any
  /// thread *except* a pool worker whose waited-on task is still queued
  /// (callers that both produce and consume on the pool must fulfill their
  /// own work before waiting on others', see DangoronServer).
  template <typename Fn>
  auto Async(Fn fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(std::move(fn));
    std::future<R> future = task->get_future();
    Schedule([task]() { (*task)(); });
    return future;
  }

  /// Blocks until every task passed to `Schedule`/`Async` has finished.
  /// Must not be called from a pool worker.
  void Wait();

  /// Runs `body(block_index)` for block_index in [0, num_blocks) across the
  /// pool and waits for completion. Runs inline when the pool has one thread
  /// or there is a single block. Safe to call from inside a pool task.
  void ParallelFor(int64_t num_blocks,
                   const std::function<void(int64_t)>& body);

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  CondVar work_available_;
  CondVar work_done_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  int64_t in_flight_ GUARDED_BY(mutex_) = 0;
  bool shutting_down_ GUARDED_BY(mutex_) = false;
};

}  // namespace dangoron

#endif  // DANGORON_COMMON_THREAD_POOL_H_
