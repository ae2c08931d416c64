#ifndef LAMO_PARALLEL_THREAD_POOL_H_
#define LAMO_PARALLEL_THREAD_POOL_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace lamo {

/// Fixed-size worker pool over a FIFO task queue. Workers are started in the
/// constructor and joined in the destructor (pending tasks are drained
/// first). This is the low-level engine behind ParallelFor/ParallelMap
/// (parallel_for.h), which track completion and the first exception of a
/// region themselves; most code should use those instead of raw Submit.
/// Tasks must not throw.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (0 is allowed: Submit still accepts tasks
  /// but nothing runs them until destruction drains the queue inline).
  explicit ThreadPool(size_t num_threads);

  /// Drains the queue, then stops and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task. Never blocks on task execution.
  void Submit(std::function<void()> task);

  /// True when called from one of this process's pool worker threads (any
  /// pool). Parallel regions use this to reject nested fan-out.
  static bool InWorker();

 private:
  /// A queued task plus its enqueue timestamp. The timestamp is only taken
  /// when an observability sink is installed (obs/obs.h); `stamped` records
  /// that, so queue-wait accounting costs nothing when disabled.
  struct QueuedTask {
    std::function<void()> fn;
    std::chrono::steady_clock::time_point enqueued;
    bool stamped = false;
  };

  void WorkerLoop(size_t worker_index);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // signals workers: task or stop
  std::deque<QueuedTask> queue_;     // guarded by mu_
  bool stop_ = false;                // guarded by mu_
};

}  // namespace lamo

#endif  // LAMO_PARALLEL_THREAD_POOL_H_
