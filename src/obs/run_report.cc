#include "obs/run_report.h"

#include <cinttypes>

#include "obs/json.h"
#include "util/atomic_io.h"

namespace lamo {
namespace {

/// Must match the counter registered in parallel/parallel_for.cc.
constexpr const char* kChunksCounter = "parallel.chunks";

void WritePhase(JsonWriter* json, const PhaseNode& phase) {
  json->BeginObject();
  json->Key("name");
  json->String(phase.name);
  json->Key("wall_ms");
  json->Double(phase.wall_ms);
  json->Key("children");
  json->BeginArray();
  for (const PhaseNode& child : phase.children) WritePhase(json, child);
  json->EndArray();
  json->EndObject();
}

/// Prints `phase` annotated with its share of `parent_ms` (the enclosing
/// phase's wall time; top-level phases are shown against the sink's total).
void PrintPhase(std::FILE* out, const PhaseNode& phase, int depth,
                double parent_ms) {
  const double pct =
      parent_ms > 0.0 ? 100.0 * phase.wall_ms / parent_ms : 0.0;
  std::fprintf(out, "  %*s%-*s %10.2f ms %5.1f%%\n", 2 * depth, "",
               28 - 2 * depth, phase.name.c_str(), phase.wall_ms, pct);
  for (const PhaseNode& child : phase.children) {
    PrintPhase(out, child, depth + 1, phase.wall_ms);
  }
}

void WriteHistogram(JsonWriter* json, const HistogramSnapshot& hist) {
  json->BeginObject();
  json->Key("count");
  json->Int(hist.count);
  json->Key("sum");
  json->Int(hist.sum);
  json->Key("min");
  json->Int(hist.min);
  json->Key("max");
  json->Int(hist.max);
  json->Key("p50");
  json->Int(hist.Percentile(0.50));
  json->Key("p90");
  json->Int(hist.Percentile(0.90));
  json->Key("p99");
  json->Int(hist.Percentile(0.99));
  json->Key("buckets");
  json->BeginArray();
  for (size_t b = 0; b < kObsHistogramBuckets; ++b) {
    if (hist.buckets[b] == 0) continue;
    json->BeginObject();
    json->Key("lo");
    json->Int(ObsHistogramBucketLo(b));
    json->Key("hi");
    json->Int(ObsHistogramBucketHi(b));
    json->Key("count");
    json->Int(hist.buckets[b]);
    json->EndObject();
  }
  json->EndArray();
  json->EndObject();
}

}  // namespace

std::string RunReportJson(
    const ObsSink& sink, const std::string& command, size_t threads,
    const std::map<std::string, std::string>& annotations) {
  const std::map<std::string, uint64_t> counters = sink.CounterTotals();
  JsonWriter json;
  json.BeginObject();
  json.Key("lamo_report_version");
  json.Int(2);
  json.Key("command");
  json.String(command);
  json.Key("threads");
  json.Int(threads);
  json.Key("wall_ms");
  json.Double(sink.ElapsedMs());

  json.Key("annotations");
  json.BeginObject();
  for (const auto& [key, value] : annotations) {
    json.Key(key);
    json.String(value);
  }
  json.EndObject();

  json.Key("phases");
  json.BeginArray();
  for (const PhaseNode& phase : sink.Phases()) WritePhase(&json, phase);
  json.EndArray();

  json.Key("counters");
  json.BeginObject();
  for (const auto& [name, value] : counters) {
    json.Key(name);
    json.Int(value);
  }
  json.EndObject();

  json.Key("gauges");
  json.BeginObject();
  for (const auto& [name, value] : sink.Gauges()) {
    json.Key(name);
    json.Double(value);
  }
  json.EndObject();

  json.Key("histograms");
  json.BeginObject();
  for (const HistogramSnapshot& hist : sink.Histograms()) {
    json.Key(hist.name);
    WriteHistogram(&json, hist);
  }
  json.EndObject();

  json.Key("workers");
  json.BeginArray();
  for (const WorkerCounters& worker : sink.PerThreadCounters()) {
    json.BeginObject();
    json.Key("name");
    json.String(worker.thread_name);
    json.Key("tasks");
    const auto tasks = worker.counters.find(kChunksCounter);
    json.Int(tasks == worker.counters.end() ? 0 : tasks->second);
    json.Key("counters");
    json.BeginObject();
    for (const auto& [name, value] : worker.counters) {
      if (value == 0) continue;  // per-worker detail: nonzero cells only
      json.Key(name);
      json.Int(value);
    }
    json.EndObject();
    json.EndObject();
  }
  json.EndArray();

  json.EndObject();
  return json.str();
}

Status WriteRunReport(
    const ObsSink& sink, const std::string& command, size_t threads,
    const std::string& path,
    const std::map<std::string, std::string>& annotations) {
  // Atomic replace: report consumers (lamo_report_check, dashboards) must
  // never observe a torn document.
  const std::string document =
      RunReportJson(sink, command, threads, annotations) + "\n";
  return WriteFileAtomic(path, document);
}

void PrintRunSummary(const ObsSink& sink, const std::string& command,
                     size_t threads, std::FILE* out) {
  const std::map<std::string, uint64_t> counters = sink.CounterTotals();
  std::fprintf(out, "== lamo %s run stats ==\n", command.c_str());
  std::fprintf(out, "wall time %.2f ms, %zu threads\n", sink.ElapsedMs(),
               threads);
  const std::vector<PhaseNode> phases = sink.Phases();
  if (!phases.empty()) {
    std::fprintf(out, "phases (%% of parent wall time):\n");
    for (const PhaseNode& phase : phases) {
      PrintPhase(out, phase, 0, sink.ElapsedMs());
    }
  }
  std::fprintf(out, "counters (nonzero):\n");
  for (const auto& [name, value] : counters) {
    if (value == 0) continue;
    std::fprintf(out, "  %-28s %12" PRIu64 "\n", name.c_str(), value);
  }
  for (const auto& [name, value] : sink.Gauges()) {
    std::fprintf(out, "  %-28s %12.4f\n", name.c_str(), value);
  }
  bool histogram_header = false;
  for (const HistogramSnapshot& hist : sink.Histograms()) {
    if (hist.count == 0) continue;
    if (!histogram_header) {
      std::fprintf(out, "latency histograms (us):\n");
      std::fprintf(out, "  %-28s %10s %10s %10s %10s\n", "", "count", "p50",
                   "p90", "p99");
      histogram_header = true;
    }
    std::fprintf(out,
                 "  %-28s %10" PRIu64 " %10" PRIu64 " %10" PRIu64
                 " %10" PRIu64 "\n",
                 hist.name.c_str(), hist.count, hist.Percentile(0.50),
                 hist.Percentile(0.90), hist.Percentile(0.99));
  }
  std::fprintf(out, "workers:\n");
  for (const WorkerCounters& worker : sink.PerThreadCounters()) {
    const auto tasks = worker.counters.find(kChunksCounter);
    std::fprintf(out, "  %-28s %12" PRIu64 " tasks\n",
                 worker.thread_name.c_str(),
                 tasks == worker.counters.end() ? 0 : tasks->second);
  }
}

}  // namespace lamo
