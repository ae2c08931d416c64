#include "parallel/thread_pool.h"

#include <atomic>

#include <gtest/gtest.h>

namespace lamo {
namespace {

TEST(ThreadPoolTest, StartupAndShutdownIdle) {
  // Construct and destroy without ever submitting: workers must start and
  // join cleanly.
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
}

TEST(ThreadPoolTest, RunsAllSubmittedTasks) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }  // destruction drains the queue and joins the workers
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DrainsQueueOnDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): destruction must still run everything.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, ZeroWorkersRunsTasksAtDestruction) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(0);
    pool.Submit([&counter] { counter.fetch_add(1); });
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, InWorkerTrueOnlyOnWorkerThreads) {
  EXPECT_FALSE(ThreadPool::InWorker());
  std::atomic<bool> saw_worker_flag{false};
  {
    ThreadPool pool(2);
    pool.Submit([&saw_worker_flag] {
      saw_worker_flag.store(ThreadPool::InWorker());
    });
  }
  EXPECT_TRUE(saw_worker_flag.load());
  EXPECT_FALSE(ThreadPool::InWorker());
}

}  // namespace
}  // namespace lamo
