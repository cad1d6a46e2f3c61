#ifndef MOTSIM_UTIL_THREAD_POOL_H
#define MOTSIM_UTIL_THREAD_POOL_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace motsim {

/// Always-on execution statistics of a ThreadPool, collected under the
/// pool's existing queue mutex (no extra synchronization on the task
/// path). `idle_seconds` sums the time workers spent blocked waiting
/// for work — including the final wait before shutdown — and
/// `busy_seconds` the time spent inside tasks; both are summed across
/// all workers, so a pool of N can accrue N seconds per wall second.
struct ThreadPoolStats {
  std::uint64_t tasks_executed = 0;
  std::size_t max_queue_depth = 0;
  double idle_seconds = 0;
  double busy_seconds = 0;
};

/// Fixed-size worker pool with a FIFO task queue.
///
/// Built for the fault-sharded symbolic driver (core/parallel_sym_sim)
/// but deliberately generic: submit() enqueues a task, wait_idle()
/// blocks until every submitted task has finished. Tasks must not
/// throw — an escaped exception terminates the process (workers run
/// them bare); callers that can fail should capture errors into their
/// own state (see run_sharded in core/parallel_sym_sim.cpp).
///
/// The pool itself is thread-safe; the objects a task touches are the
/// task's own business. In this codebase the cardinal rule is one
/// bdd::BddManager per thread (see bdd/bdd.h) — tasks therefore own
/// their manager and never share BDD handles across submissions.
class ThreadPool {
 public:
  /// Spawns `thread_count` workers (at least 1; 0 is promoted to 1).
  explicit ThreadPool(std::size_t thread_count);

  /// Joins all workers; pending tasks are still executed first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const noexcept { return workers_.size(); }

  /// Enqueues a task; returns immediately.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and no task is executing.
  void wait_idle();

  /// std::thread::hardware_concurrency() clamped to at least 1 (the
  /// standard allows it to return 0 when undeterminable).
  [[nodiscard]] static std::size_t default_thread_count();

  /// Point-in-time copy of the pool's execution statistics. Exact once
  /// the pool is idle (after wait_idle()); a mid-run read is a
  /// consistent snapshot of the completed work.
  [[nodiscard]] ThreadPoolStats stats() const;

 private:
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::deque<std::function<void()>> queue_;
  std::size_t in_flight_ = 0;  ///< queued + currently executing
  bool shutdown_ = false;
  ThreadPoolStats stats_;  ///< guarded by mutex_
  std::vector<std::thread> workers_;
};

}  // namespace motsim

#endif  // MOTSIM_UTIL_THREAD_POOL_H
