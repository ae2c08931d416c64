#include "parallel/thread_pool.h"

#include <string>
#include <utility>

#include "obs/obs.h"
#include "obs/trace.h"

namespace lamo {
namespace {

thread_local bool tls_pool_worker = false;

/// Tasks executed by pool workers (Submit-level granularity; the chunk-level
/// breakdown is parallel.chunks).
const size_t kObsPoolTasks = ObsCounterId("pool.tasks");
/// Total time tasks spent queued before a worker picked them up, in
/// microseconds. Only accumulated while a sink is installed.
const size_t kObsQueueWaitUs = ObsCounterId("pool.queue_wait_us");
/// Per-task queue-wait distribution (same samples as the counter above);
/// its p99 is the scheduling-delay headline in bench_scaling.
const size_t kHistQueueWaitUs = ObsHistogramId("pool.queue_wait_us");
/// One span per executed task, so traces show worker occupancy gaps.
const size_t kSpanPoolTask = ObsSpanId("pool.task");

/// Records queue-wait for a task that was stamped at Submit time.
void RecordDequeue(const std::chrono::steady_clock::time_point& enqueued,
                   bool stamped) {
  if (!stamped || !ObsEnabled()) return;
  const auto waited = std::chrono::steady_clock::now() - enqueued;
  const uint64_t us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(waited).count());
  ObsAdd(kObsQueueWaitUs, us);
  ObsObserve(kHistQueueWaitUs, us);
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // With zero workers the queue may still hold tasks: honor the "drained
  // before shutdown" contract by running them inline.
  while (!queue_.empty()) {
    QueuedTask task = std::move(queue_.front());
    queue_.pop_front();
    task.fn();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  QueuedTask queued;
  queued.fn = std::move(task);
  if (ObsEnabled()) {
    queued.enqueued = std::chrono::steady_clock::now();
    queued.stamped = true;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(queued));
  }
  work_cv_.notify_one();
}

bool ThreadPool::InWorker() { return tls_pool_worker; }

void ThreadPool::WorkerLoop(size_t worker_index) {
  tls_pool_worker = true;
  ObsSetThreadName("worker" + std::to_string(worker_index));
  for (;;) {
    QueuedTask task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    RecordDequeue(task.enqueued, task.stamped);
    ObsIncrement(kObsPoolTasks);
    const ScopedSpan span(kSpanPoolTask);
    task.fn();
  }
}

}  // namespace lamo
