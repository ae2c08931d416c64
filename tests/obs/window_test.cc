#include "obs/window.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/obs.h"
#include "obs/prometheus.h"
#include "util/random.h"

namespace lamo {
namespace {

const size_t kWinCounter = ObsCounterId("window_test.ops");
const size_t kWinHist = ObsHistogramId("window_test.us");

std::map<std::string, uint64_t> Counters(uint64_t value) {
  return {{"c", value}};
}

HistogramSnapshot SnapshotOf(const std::vector<uint64_t>& values) {
  HistogramSnapshot snapshot;
  if (values.empty()) return snapshot;
  snapshot.min = UINT64_MAX;
  for (uint64_t value : values) {
    snapshot.buckets[ObsHistogramBucket(value)] += 1;
    snapshot.count += 1;
    snapshot.sum += value;
    snapshot.min = std::min(snapshot.min, value);
    snapshot.max = std::max(snapshot.max, value);
  }
  return snapshot;
}

void ExpectEqualBuckets(const HistogramSnapshot& a,
                        const HistogramSnapshot& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.sum, b.sum);
  EXPECT_EQ(a.buckets, b.buckets);
}

TEST(MetricWindowsTest, FirstUpdateSeedsRingWithoutDelta) {
  MetricWindows windows(/*slot_ms=*/1000, /*capacity=*/8);
  EXPECT_EQ(windows.slots(), 0u);
  windows.Update(500, Counters(10), {});
  EXPECT_EQ(windows.slots(), 1u);  // seeded so the second scrape has a base
  EXPECT_EQ(windows.latest_ms(), 500u);
  MetricWindows::Delta delta;
  EXPECT_FALSE(windows.WindowDelta(1000, &delta))
      << "no slot strictly older than the only update";
}

TEST(MetricWindowsTest, SecondUpdateYieldsDeltaAgainstSeed) {
  MetricWindows windows(1000, 8);
  windows.Update(0, Counters(10), {});
  windows.Update(2500, Counters(17), {});
  MetricWindows::Delta delta;
  ASSERT_TRUE(windows.WindowDelta(10'000, &delta));
  EXPECT_DOUBLE_EQ(delta.span_s, 2.5);  // best effort: shorter than asked
  EXPECT_EQ(delta.counters.at("c"), 7u);
}

TEST(MetricWindowsTest, WindowPicksNewestSlotAtLeastWindowOld) {
  MetricWindows windows(1000, 16);
  // One slot per 5s tick, counter +100 each.
  for (uint64_t t = 0; t <= 20'000; t += 5000) {
    windows.Update(t, Counters(t / 50), {});
  }
  MetricWindows::Delta delta;
  // 10s lookback from t=20000: the newest slot >= 10s old is t=10000.
  ASSERT_TRUE(windows.WindowDelta(10'000, &delta));
  EXPECT_DOUBLE_EQ(delta.span_s, 10.0);
  EXPECT_EQ(delta.counters.at("c"), 200u);
  // 60s lookback: nothing is 60s old, fall back to the oldest slot (t=0).
  ASSERT_TRUE(windows.WindowDelta(60'000, &delta));
  EXPECT_DOUBLE_EQ(delta.span_s, 20.0);
  EXPECT_EQ(delta.counters.at("c"), 400u);
}

TEST(MetricWindowsTest, BackToBackScrapesCollapseIntoOneSlot) {
  MetricWindows windows(1000, 8);
  windows.Update(0, Counters(0), {});
  // A burst of scrapes inside one slot must not grow the ring...
  for (uint64_t t = 10; t < 500; t += 10) {
    windows.Update(t, Counters(t), {});
  }
  EXPECT_EQ(windows.slots(), 1u);
  // ...but the span stays nonzero (latest vs the slot-boundary archive).
  MetricWindows::Delta delta;
  ASSERT_TRUE(windows.WindowDelta(100, &delta));
  EXPECT_GT(delta.span_s, 0.0);
  // Once a latest snapshot lands a full slot past the last archive, the
  // next scrape archives it.
  windows.Update(1600, Counters(1600), {});
  EXPECT_EQ(windows.slots(), 1u);
  windows.Update(1700, Counters(1700), {});
  EXPECT_EQ(windows.slots(), 2u);
}

TEST(MetricWindowsTest, CapacityTrimsOldestSlot) {
  MetricWindows windows(1000, /*capacity=*/4);
  for (uint64_t t = 0; t <= 10'000; t += 1000) {
    windows.Update(t, Counters(t), {});
  }
  EXPECT_LE(windows.slots(), 4u);
  // The longest answerable window shrank to what the ring retains: the
  // oldest surviving slot, not t=0.
  MetricWindows::Delta delta;
  ASSERT_TRUE(windows.WindowDelta(60'000, &delta));
  EXPECT_LE(delta.span_s, 4.0 + 1e-9);
  EXPECT_GT(delta.span_s, 0.0);
}

TEST(MetricWindowsTest, CounterDeltasSaturateAtZero) {
  MetricWindows windows(1000, 8);
  windows.Update(0, Counters(100), {});
  // A counter going backwards (e.g. a scrape racing a restart) must clamp,
  // not wrap to ~2^64.
  windows.Update(5000, Counters(40), {});
  MetricWindows::Delta delta;
  ASSERT_TRUE(windows.WindowDelta(1000, &delta));
  EXPECT_EQ(delta.counters.at("c"), 0u);
}

TEST(MetricWindowsTest, HistogramWindowDeltaMatchesObservedTail) {
  MetricWindows windows(1000, 8);
  const std::vector<uint64_t> early = {1, 5, 9, 1000};
  std::vector<uint64_t> all = early;
  const std::vector<uint64_t> tail = {2, 2, 64, 70000};
  all.insert(all.end(), tail.begin(), tail.end());
  windows.Update(0, {}, {SnapshotOf(early)});
  windows.Update(10'000, {}, {SnapshotOf(all)});
  MetricWindows::Delta delta;
  ASSERT_TRUE(windows.WindowDelta(10'000, &delta));
  ASSERT_EQ(delta.histograms.size(), 1u);
  ExpectEqualBuckets(delta.histograms[0], SnapshotOf(tail));
  // Window min/max carry bucket bounds, the best the ring retains.
  const HistogramSnapshot& d = delta.histograms[0];
  EXPECT_EQ(d.min, ObsHistogramBucketLo(ObsHistogramBucket(2)));
  EXPECT_EQ(d.max, ObsHistogramBucketHi(ObsHistogramBucket(70000)));
  // Percentiles stay within those bounds.
  EXPECT_GE(d.Percentile(0.5), d.min);
  EXPECT_LE(d.Percentile(0.99), d.max);
}

TEST(MetricWindowsTest, DiffComposesLikeMergeInReverse) {
  // For cumulative snapshots a ⊆ b ⊆ c, the window algebra must be
  // self-consistent: diff(c,a) == merge(diff(c,b), diff(b,a)), mirroring the
  // MergeHistograms associativity property.
  Rng rng(42);
  for (int round = 0; round < 50; ++round) {
    auto extend = [&](std::vector<uint64_t> values) {
      const size_t n = rng.Uniform(8);  // empty increments included
      for (size_t i = 0; i < n; ++i) {
        values.push_back(rng.Uniform(1u << 16));
      }
      return values;
    };
    const std::vector<uint64_t> a = extend({});
    const std::vector<uint64_t> b = extend(a);
    const std::vector<uint64_t> c = extend(b);
    const HistogramSnapshot sa = SnapshotOf(a);
    const HistogramSnapshot sb = SnapshotOf(b);
    const HistogramSnapshot sc = SnapshotOf(c);
    ExpectEqualBuckets(DiffHistograms(sc, sa),
                       MergeHistograms(DiffHistograms(sc, sb),
                                       DiffHistograms(sb, sa)));
    // Diffing a snapshot against itself is empty.
    EXPECT_EQ(DiffHistograms(sb, sb).count, 0u);
  }
}

TEST(PrometheusTest, RenderParseRoundTrip) {
  ObsSink sink;
  SetObsSink(&sink);
  ObsAdd(kWinCounter, 42);
  for (uint64_t v : {3ull, 700ull, 15ull, 0ull}) ObsObserve(kWinHist, v);
  SetObsSink(nullptr);

  MetricWindows windows(1000, 8);
  // Two collections so the 10s window has a base and rate samples appear.
  CollectPromFamilies(&sink, &windows, 0, 1.0, 123.0);
  const std::vector<PromFamily> families =
      CollectPromFamilies(&sink, &windows, 10'000, 11.0, 123.0);
  std::string text;
  for (const std::string& line : RenderPromLines(families)) {
    text += line + "\n";
  }
  std::vector<PromFamily> reparsed;
  std::string error;
  ASSERT_TRUE(ParsePromFamilies(text, &reparsed, &error)) << error;

  auto find = [&reparsed](const std::string& name) -> const PromFamily* {
    for (const PromFamily& f : reparsed) {
      if (f.name == name) return &f;
    }
    return nullptr;
  };
  ASSERT_NE(find("lamo_uptime_seconds"), nullptr);
  const PromFamily* total = find("lamo_window_test_ops_total");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->type, "counter");
  ASSERT_EQ(total->samples.size(), 1u);
  EXPECT_EQ(total->samples[0], "lamo_window_test_ops_total 42");
  const PromFamily* rates = find("lamo_window_test_ops_per_sec");
  ASSERT_NE(rates, nullptr);
  EXPECT_EQ(rates->type, "gauge");
  bool have_10s = false;
  for (const std::string& s : rates->samples) {
    if (s.find("window=\"10s\"") != std::string::npos) have_10s = true;
  }
  EXPECT_TRUE(have_10s);
  const PromFamily* hist = find("lamo_window_test_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->type, "histogram");
  bool have_inf = false;
  for (const std::string& s : hist->samples) {
    if (s.find("le=\"+Inf\"} 4") != std::string::npos) have_inf = true;
  }
  EXPECT_TRUE(have_inf) << "+Inf bucket must equal the observation count";
  ASSERT_NE(find("lamo_window_test_us_p99"), nullptr);
}

TEST(PrometheusTest, ParserRejectsMalformedInput) {
  std::vector<PromFamily> families;
  std::string error;
  EXPECT_FALSE(ParsePromFamilies("lamo_x 1\n", &families, &error))
      << "sample before any TYPE header";
  EXPECT_FALSE(
      ParsePromFamilies("# TYPE lamo_x counter\nlamo_y 1\n", &families,
                        &error))
      << "sample outside its family";
  EXPECT_FALSE(
      ParsePromFamilies("# TYPE lamo_x counter\nlamo_x abc\n", &families,
                        &error))
      << "non-numeric value";
  EXPECT_FALSE(ParsePromFamilies("# TYPE 9bad counter\n", &families, &error))
      << "digit-first metric name";
  EXPECT_TRUE(ParsePromFamilies(
      "# HELP lamo_x help text\n# TYPE lamo_x counter\nlamo_x{a=\"b\"} 7\n",
      &families, &error))
      << error;
}

TEST(PrometheusTest, SampleParserSplitsLabelsAndUnescapesValues) {
  PromSample sample;
  std::string error;
  ASSERT_TRUE(ParsePromSample("lamo_x 7", &sample, &error)) << error;
  EXPECT_EQ(sample.name, "lamo_x");
  EXPECT_TRUE(sample.labels.empty());
  EXPECT_EQ(sample.value, 7.0);

  ASSERT_TRUE(ParsePromSample(
      "lamo_rate{backend=\"1\",shard=\"1/2\",window=\"10s\"} 61.5", &sample,
      &error))
      << error;
  EXPECT_EQ(sample.name, "lamo_rate");
  const std::map<std::string, std::string> labels = {
      {"backend", "1"}, {"shard", "1/2"}, {"window", "10s"}};
  EXPECT_EQ(sample.labels, labels);
  EXPECT_EQ(sample.value, 61.5);

  // An escaped quote stays inside the value instead of ending it, and so
  // does a comma or brace; the escaped backslash yields one backslash.
  ASSERT_TRUE(ParsePromSample(
      "lamo_x{path=\"a\\\"b,}c\",dir=\"x\\\\\"} 1", &sample, &error))
      << error;
  EXPECT_EQ(sample.labels.at("path"), "a\"b,}c");
  EXPECT_EQ(sample.labels.at("dir"), "x\\");
  EXPECT_EQ(sample.value, 1.0);

  // Every malformed shape lamo_metrics_check rejects.
  const char* kMalformed[] = {
      "lamo_x",                  // no value at all
      "lamo_x{a} 1",             // label without '='
      "lamo_x{a=b} 1",           // unquoted label value
      "lamo_x{a=\"b} 1",         // unterminated label value
      "lamo_x{a=\"b\\\"} 1",     // escaped quote leaves the value open
      "lamo_x{a=\"b\" 1",        // label set never closed
      "lamo_x{a=\"b\",c=\"d\"",  // label set ends the line
      "lamo_x abc",              // non-numeric value
      "lamo_x 1 2",              // trailing garbage after the value
      "lamo_x{a=\"b\"}",         // labels but no value
  };
  for (const char* line : kMalformed) {
    error.clear();
    EXPECT_FALSE(ParsePromSample(line, &sample, &error)) << line;
    EXPECT_FALSE(error.empty()) << line;
  }
}

TEST(PrometheusTest, InjectedLabelsMergeIntoExistingSets) {
  EXPECT_EQ(InjectPromLabels("m 1", "backend=\"0\""), "m{backend=\"0\"} 1");
  EXPECT_EQ(InjectPromLabels("m{le=\"8\"} 1", "backend=\"0\""),
            "m{backend=\"0\",le=\"8\"} 1");
}

// The TSan target of the obs suite: writers hammer the per-thread counter
// blocks while a scraper repeatedly merges totals and updates the window
// ring, the exact concurrency shape of serving traffic during a METRICS
// scrape.
TEST(MetricWindowsTest, ConcurrentObserveVersusScrape) {
  ObsSink sink;
  SetObsSink(&sink);
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&stop] {
      uint64_t i = 0;
      while (!stop.load(std::memory_order_acquire)) {
        ObsIncrement(kWinCounter);
        ObsObserve(kWinHist, i++ & 0xFFF);
      }
    });
  }
  MetricWindows windows(/*slot_ms=*/1, /*capacity=*/4);
  uint64_t last_total = 0;
  for (uint64_t scrape = 0; scrape < 200; ++scrape) {
    const std::vector<PromFamily> families = CollectPromFamilies(
        &sink, &windows, /*now_ms=*/scrape * 2, /*uptime_s=*/1.0,
        /*start_time_s=*/0.0);
    EXPECT_GE(families.size(), 2u);  // uptime + start_time at minimum
    const uint64_t total = sink.CounterTotals().at("window_test.ops");
    EXPECT_GE(total, last_total) << "merged totals must be monotone";
    last_total = total;
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& writer : writers) writer.join();
  SetObsSink(nullptr);
}

}  // namespace
}  // namespace lamo
