#include "obs/obs.h"

#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/run_report.h"
#include "parallel/parallel_for.h"

namespace lamo {
namespace {

const size_t kTestCounter = ObsCounterId("obs_test.widgets");
const size_t kTestCounterB = ObsCounterId("obs_test.gadgets");

TEST(ObsTest, CounterIdIsIdempotent) {
  EXPECT_EQ(ObsCounterId("obs_test.widgets"), kTestCounter);
  EXPECT_EQ(ObsCounterId("obs_test.gadgets"), kTestCounterB);
  EXPECT_NE(kTestCounter, kTestCounterB);
  const auto names = ObsCounterNames();
  ASSERT_GT(names.size(), kTestCounter);
  EXPECT_EQ(names[kTestCounter], "obs_test.widgets");
}

TEST(ObsTest, DisabledByDefault) {
  ASSERT_EQ(GetObsSink(), nullptr);
  EXPECT_FALSE(ObsEnabled());
  ObsAdd(kTestCounter, 5);  // must be a no-op, not a crash
}

TEST(ObsTest, CountsAreMergedAcrossThreads) {
  ObsSink sink;
  SetObsSink(&sink);
  ObsAdd(kTestCounter, 2);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 1000; ++i) ObsIncrement(kTestCounter);
    });
  }
  for (auto& thread : threads) thread.join();
  SetObsSink(nullptr);
  const auto totals = sink.CounterTotals();
  EXPECT_EQ(totals.at("obs_test.widgets"), 4002u);
  EXPECT_EQ(totals.at("obs_test.gadgets"), 0u)
      << "registered counters must appear even when untouched";
}

TEST(ObsTest, ReleasedBlocksAreReusedAndTotalsStayExact) {
  ObsSink sink;
  SetObsSink(&sink);
  for (int t = 0; t < 50; ++t) {
    std::thread([] {
      ObsIncrement(kTestCounter);
      ObsReleaseThreadState();
    }).join();
  }
  SetObsSink(nullptr);
  EXPECT_EQ(sink.PerThreadCounters().size(), 1u)
      << "threads that ran one after another share one block";
  EXPECT_EQ(sink.CounterTotals().at("obs_test.widgets"), 50u);
}

TEST(ObsTest, SinkSwapIsolatesCounts) {
  ObsSink first;
  SetObsSink(&first);
  ObsAdd(kTestCounter, 7);
  SetObsSink(nullptr);
  ObsSink second;
  SetObsSink(&second);
  ObsAdd(kTestCounter, 1);
  SetObsSink(nullptr);
  EXPECT_EQ(first.CounterTotals().at("obs_test.widgets"), 7u);
  EXPECT_EQ(second.CounterTotals().at("obs_test.widgets"), 1u);
}

TEST(ObsTest, PhaseTreeNestsAndTimes) {
  ObsSink sink;
  SetObsSink(&sink);
  {
    ScopedTimer outer("outer");
    { ScopedTimer inner("first"); }
    { ScopedTimer inner("second"); }
  }
  { ScopedTimer other("tail"); }
  SetObsSink(nullptr);
  const auto phases = sink.Phases();
  ASSERT_EQ(phases.size(), 2u);
  EXPECT_EQ(phases[0].name, "outer");
  ASSERT_EQ(phases[0].children.size(), 2u);
  EXPECT_EQ(phases[0].children[0].name, "first");
  EXPECT_EQ(phases[0].children[1].name, "second");
  EXPECT_GE(phases[0].wall_ms, phases[0].children[0].wall_ms);
  EXPECT_EQ(phases[1].name, "tail");
  EXPECT_TRUE(phases[1].children.empty());
}

TEST(ObsTest, GaugesRoundTrip) {
  ObsSink sink;
  SetObsSink(&sink);
  sink.SetGauge("obs_test.rate", 0.25);
  sink.SetGauge("obs_test.rate", 0.75);  // overwrite
  SetObsSink(nullptr);
  const auto gauges = sink.Gauges();
  ASSERT_EQ(gauges.count("obs_test.rate"), 1u);
  EXPECT_DOUBLE_EQ(gauges.at("obs_test.rate"), 0.75);
}

TEST(ObsTest, WorkerThreadsAppearInPerThreadBreakdown) {
  ObsSink sink;
  SetObsSink(&sink);
  SetThreadCount(3);
  ParallelFor(0, 64, 1, [](size_t) { ObsIncrement(kTestCounter); });
  SetThreadCount(0);
  SetObsSink(nullptr);
  const auto per_thread = sink.PerThreadCounters();
  ASSERT_FALSE(per_thread.empty());
  uint64_t total = 0;
  for (const auto& worker : per_thread) {
    EXPECT_FALSE(worker.thread_name.empty());
    auto it = worker.counters.find("obs_test.widgets");
    if (it != worker.counters.end()) total += it->second;
  }
  EXPECT_EQ(total, 64u);
}

TEST(ObsTest, RunReportJsonHasRequiredKeys) {
  ObsSink sink;
  SetObsSink(&sink);
  { ScopedTimer timer("stage"); ObsIncrement(kTestCounter); }
  SetObsSink(nullptr);
  const std::string json = RunReportJson(sink, "test", 2);
  for (const char* key :
       {"\"lamo_report_version\":2", "\"command\":\"test\"", "\"threads\":2",
        "\"wall_ms\":", "\"phases\":", "\"counters\":", "\"gauges\":",
        "\"histograms\":", "\"trace.dropped\":", "\"workers\":",
        "\"obs_test.widgets\":1"}) {
    EXPECT_NE(json.find(key), std::string::npos) << "missing " << key;
  }
}

TEST(ObsTest, DestructorUninstallsItself) {
  {
    ObsSink sink;
    SetObsSink(&sink);
    EXPECT_TRUE(ObsEnabled());
  }
  EXPECT_FALSE(ObsEnabled()) << "destroyed sink left installed";
}

}  // namespace
}  // namespace lamo
