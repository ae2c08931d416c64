#include "obs/trace.h"

#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/obs.h"

namespace lamo {
namespace {

const size_t kTestSpan = ObsSpanId("obs_test.work");
const size_t kTestSpanB = ObsSpanId("obs_test.more_work");
const size_t kTestItemHist = ObsHistogramId("obs_test.item_us");

// Collects the ph=="X" events of a parsed trace, optionally for one name.
std::vector<const JsonValue*> CompleteEvents(const JsonValue& trace,
                                             const std::string& name = "") {
  std::vector<const JsonValue*> events;
  const JsonValue* items = trace.Find("traceEvents");
  if (items == nullptr) return events;
  for (const JsonValue& event : items->items) {
    const JsonValue* ph = event.Find("ph");
    if (ph == nullptr || ph->string_value != "X") continue;
    if (!name.empty() && event.Find("name")->string_value != name) continue;
    events.push_back(&event);
  }
  return events;
}

JsonValue Parse(const TraceCollector& collector) {
  JsonValue trace;
  std::string error;
  EXPECT_TRUE(ParseJson(collector.ToJson(), &trace, &error)) << error;
  return trace;
}

TEST(TraceTest, SpanIdIsIdempotent) {
  EXPECT_EQ(ObsSpanId("obs_test.work"), kTestSpan);
  EXPECT_EQ(ObsSpanId("obs_test.more_work"), kTestSpanB);
  EXPECT_NE(kTestSpan, kTestSpanB);
  const auto names = ObsSpanNames();
  ASSERT_GT(names.size(), kTestSpan);
  EXPECT_EQ(names[kTestSpan], "obs_test.work");
}

TEST(TraceTest, DisabledIsNoOp) {
  ASSERT_EQ(GetTraceCollector(), nullptr);
  EXPECT_FALSE(TraceEnabled());
  EXPECT_EQ(ObsActiveMask() & kObsTraceBit, 0);
  const auto now = std::chrono::steady_clock::now();
  TraceRecordSpan(kTestSpan, now, now);  // must be a no-op, not a crash
  { const ScopedSpan span(kTestSpan, 1, 2); }
  { const ScopedItemTimer timer(kTestSpan, kTestItemHist); }
}

TEST(TraceTest, ActiveMaskTracksInstalledConsumers) {
  EXPECT_EQ(ObsActiveMask(), 0);
  {
    TraceCollector collector;
    SetTraceCollector(&collector);
    EXPECT_EQ(ObsActiveMask(), kObsTraceBit);
    EXPECT_TRUE(TraceEnabled());
    ObsSink sink;
    SetObsSink(&sink);
    EXPECT_EQ(ObsActiveMask(), kObsSinkBit | kObsTraceBit);
    SetObsSink(nullptr);
    SetTraceCollector(nullptr);
  }
  EXPECT_EQ(ObsActiveMask(), 0);
}

TEST(TraceTest, RecordedSpansRoundTripThroughJson) {
  TraceCollector collector;
  SetTraceCollector(&collector);
  { const ScopedSpan span(kTestSpan, 7, 9); }
  { const ScopedSpan span(kTestSpanB); }
  SetTraceCollector(nullptr);
  EXPECT_EQ(collector.RecordedEvents(), 2u);
  EXPECT_EQ(collector.DroppedEvents(), 0u);

  const JsonValue trace = Parse(collector);
  const auto events = CompleteEvents(trace, "obs_test.work");
  ASSERT_EQ(events.size(), 1u);
  const JsonValue& event = *events[0];
  EXPECT_TRUE(event.Find("ts")->is_number());
  EXPECT_TRUE(event.Find("dur")->is_number());
  const JsonValue* args = event.Find("args");
  ASSERT_NE(args, nullptr);
  EXPECT_EQ(args->Find("a0")->number_value, 7.0);
  EXPECT_EQ(args->Find("a1")->number_value, 9.0);
  // The zero-arg span carries no args object at all.
  const auto plain = CompleteEvents(trace, "obs_test.more_work");
  ASSERT_EQ(plain.size(), 1u);
  EXPECT_EQ(plain[0]->Find("args"), nullptr);
  // otherData totals match the collector's accounting.
  const JsonValue* other = trace.Find("otherData");
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(other->Find("recorded")->number_value, 2.0);
  EXPECT_EQ(other->Find("dropped")->number_value, 0.0);
}

TEST(TraceTest, OverflowDropsOldestAndCountsThem) {
  ObsSink sink;  // so trace.dropped accumulates
  SetObsSink(&sink);
  TraceCollector collector(/*events_per_thread=*/4);
  SetTraceCollector(&collector);
  for (uint64_t i = 0; i < 10; ++i) {
    const ScopedSpan span(kTestSpan, i);
  }
  SetTraceCollector(nullptr);
  SetObsSink(nullptr);

  EXPECT_EQ(collector.RecordedEvents(), 10u);
  EXPECT_EQ(collector.DroppedEvents(), 6u);
  EXPECT_EQ(sink.CounterTotals().at("trace.dropped"), 6u);

  // The ring keeps the newest events: args 6..9 survive, in order.
  const JsonValue trace = Parse(collector);
  const auto events = CompleteEvents(trace, "obs_test.work");
  ASSERT_EQ(events.size(), 4u);
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i]->Find("args")->Find("a0")->number_value,
              static_cast<double>(6 + i));
  }
}

TEST(TraceTest, ThreadsGetSeparateRingsAndMetadata) {
  TraceCollector collector;
  SetTraceCollector(&collector);
  { const ScopedSpan span(kTestSpan); }  // main thread
  std::vector<std::thread> threads;
  for (int t = 0; t < 3; ++t) {
    threads.emplace_back([t] {
      ObsSetThreadName("hammer" + std::to_string(t));
      for (int i = 0; i < 200; ++i) {
        const ScopedSpan span(kTestSpanB, static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& thread : threads) thread.join();
  SetTraceCollector(nullptr);
  EXPECT_EQ(collector.RecordedEvents(), 601u);

  const JsonValue trace = Parse(collector);
  std::set<double> tids;
  for (const JsonValue* event : CompleteEvents(trace)) {
    tids.insert(event->Find("tid")->number_value);
  }
  EXPECT_EQ(tids.size(), 4u) << "each thread records into its own ring";
  std::set<std::string> thread_names;
  for (const JsonValue& event : trace.Find("traceEvents")->items) {
    if (event.Find("ph")->string_value != "M") continue;
    thread_names.insert(event.Find("args")->Find("name")->string_value);
  }
  EXPECT_TRUE(thread_names.count("main"));
  EXPECT_TRUE(thread_names.count("hammer0"));
}

TEST(TraceTest, ReleasedRingsAreReused) {
  TraceCollector collector(/*events_per_thread=*/64);
  SetTraceCollector(&collector);
  for (int t = 0; t < 50; ++t) {
    std::thread([t] {
      ObsSetThreadName("conn" + std::to_string(t));
      { const ScopedSpan span(kTestSpan); }
      ObsReleaseThreadState();
    }).join();
  }
  SetTraceCollector(nullptr);
  EXPECT_EQ(collector.RecordedEvents(), 50u);
  const JsonValue trace = Parse(collector);
  std::set<double> tids;
  for (const JsonValue* event : CompleteEvents(trace)) {
    tids.insert(event->Find("tid")->number_value);
  }
  EXPECT_EQ(tids.size(), 1u) << "one ring serves every thread in turn";
  EXPECT_EQ(CompleteEvents(trace).size(), 50u);
}

TEST(TraceTest, CollectorSwapIsolatesRings) {
  TraceCollector first;
  SetTraceCollector(&first);
  { const ScopedSpan span(kTestSpan); }
  SetTraceCollector(nullptr);
  TraceCollector second;
  SetTraceCollector(&second);
  { const ScopedSpan span(kTestSpan); }
  { const ScopedSpan span(kTestSpan); }
  SetTraceCollector(nullptr);
  EXPECT_EQ(first.RecordedEvents(), 1u);
  EXPECT_EQ(second.RecordedEvents(), 2u);
}

TEST(TraceTest, ScopedTimerEmitsPhaseSpan) {
  ObsSink sink;
  SetObsSink(&sink);
  TraceCollector collector;
  SetTraceCollector(&collector);
  {
    const ScopedTimer timer("trace_test_phase");
    { const ScopedTimer inner("trace_test_inner"); }
  }
  SetTraceCollector(nullptr);
  SetObsSink(nullptr);
  const JsonValue trace = Parse(collector);
  EXPECT_EQ(CompleteEvents(trace, "trace_test_phase").size(), 1u);
  EXPECT_EQ(CompleteEvents(trace, "trace_test_inner").size(), 1u);
}

TEST(TraceTest, ScopedItemTimerFeedsBothLayers) {
  ObsSink sink;
  SetObsSink(&sink);
  TraceCollector collector;
  SetTraceCollector(&collector);
  { const ScopedItemTimer timer(kTestSpan, kTestItemHist, 11, 0, 1); }
  SetTraceCollector(nullptr);
  SetObsSink(nullptr);
  EXPECT_EQ(sink.Histograms()[kTestItemHist].count, 1u);
  const JsonValue trace = Parse(collector);
  const auto events = CompleteEvents(trace, "obs_test.work");
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0]->Find("args")->Find("a0")->number_value, 11.0);
}

TEST(TraceTest, MultiThreadHammerUnderSmallRings) {
  // TSan target: concurrent recording into per-thread rings with overflow,
  // alongside histogram observations, must be race-free.
  ObsSink sink;
  SetObsSink(&sink);
  TraceCollector collector(/*events_per_thread=*/64);
  SetTraceCollector(&collector);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      for (uint64_t i = 0; i < 5000; ++i) {
        const ScopedItemTimer timer(kTestSpanB, kTestItemHist, i, 0, 1);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  SetTraceCollector(nullptr);
  SetObsSink(nullptr);
  EXPECT_EQ(collector.RecordedEvents(), 20000u);
  EXPECT_EQ(collector.DroppedEvents(), 20000u - 4 * 64);
  EXPECT_EQ(sink.Histograms()[kTestItemHist].count, 20000u);
  const JsonValue trace = Parse(collector);
  EXPECT_EQ(CompleteEvents(trace).size(), 4u * 64u);
}

}  // namespace
}  // namespace lamo
