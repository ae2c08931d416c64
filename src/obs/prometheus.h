#ifndef LAMO_OBS_PROMETHEUS_H_
#define LAMO_OBS_PROMETHEUS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "obs/window.h"

namespace lamo {

/// ---- Prometheus text exposition ------------------------------------------
///
/// Renders the obs registry (counters, gauges, log2 histograms plus derived
/// window rates and percentiles) in the Prometheus text exposition format,
/// served by the METRICS wire verb of `lamo serve` and `lamo router`. The
/// router additionally parses each backend's exposition and re-exports the
/// series with `backend`/`shard` labels injected, so the parser half lives
/// here too (shared with tools/lamo_metrics_check and lamo_bench_client
/// --top).
///
/// Conventions:
///   * obs names map 1:1 to metric names: `serve.request_us` becomes
///     `lamo_serve_request_us` (non-alphanumerics to '_', `lamo_` prefix);
///   * counters keep the cumulative total under `<name>_total` and grow a
///     derived gauge family `<name>_per_sec{window="10s"|"60s"|"lifetime"}`;
///   * histograms emit classic cumulative `_bucket{le="..."}` series (upper
///     bounds are the inclusive log2 bucket bounds), `_sum`, `_count`, and
///     derived gauge families `<name>_p50/_p90/_p99{window=...}`;
///   * zero-valued counters and empty histograms are omitted — a scrape
///     reflects what the process actually did, and the router's own registry
///     contains the whole binary's instrumentation (esu.*, serve.*, ...)
///     at zero.

/// One metric family: a `# TYPE` header plus its sample lines (raw
/// exposition lines, label braces included, no trailing newline).
struct PromFamily {
  std::string name;
  std::string type;  ///< "counter", "gauge" or "histogram"
  std::vector<std::string> samples;
};

/// `lamo_` + obs name with every non-[a-zA-Z0-9_] byte replaced by '_'.
std::string PromMetricName(const std::string& obs_name);

/// Collects the full exposition of `sink` (nullable: renders only the uptime
/// family when no sink is installed). When `windows` is non-null it is
/// updated with the sink's merged snapshot at `now_ms` and the 10s/60s
/// window-derived families are included. `uptime_s`/`start_time_s` feed the
/// `lamo_uptime_seconds` / `lamo_start_time_seconds` gauges.
std::vector<PromFamily> CollectPromFamilies(const ObsSink* sink,
                                            MetricWindows* windows,
                                            uint64_t now_ms, double uptime_s,
                                            double start_time_s);

/// Renders families as exposition lines: each family contributes its
/// `# TYPE` header followed by its samples. Families without samples are
/// skipped.
std::vector<std::string> RenderPromLines(const std::vector<PromFamily>& families);

/// Parses exposition text (newline-separated; `# HELP` lines tolerated) back
/// into families. Every sample line must follow a `# TYPE` header it belongs
/// to (same name, or the `_bucket`/`_sum`/`_count` children of a histogram).
/// On failure returns false with a message in `*error`.
bool ParsePromFamilies(const std::string& text,
                       std::vector<PromFamily>* families, std::string* error);

/// One sample line split into its bare name, label set and numeric value.
struct PromSample {
  std::string name;
  std::map<std::string, std::string> labels;  ///< escapes (`\"`) resolved
  double value = 0.0;
};

/// Splits `name{k="v",...} value` (labels optional) with strict label-pair
/// syntax: every label is `key="value"`, a backslash escapes the next byte
/// of a value, and the set must close before the value. On failure returns
/// false with a message in `*error`.
bool ParsePromSample(const std::string& line, PromSample* sample,
                     std::string* error);

/// Returns `sample` with `labels` (e.g. `backend="0",shard="0/2"`) injected
/// into its label set, creating one when absent.
std::string InjectPromLabels(const std::string& sample,
                             const std::string& labels);

/// Merges `from` into `*into`, injecting `labels` into every sample. Samples
/// join the existing family of the same name when present (the `# TYPE`
/// header is emitted once per family), otherwise the family is appended.
void MergePromFamilies(std::vector<PromFamily>* into,
                       const std::vector<PromFamily>& from,
                       const std::string& labels);

}  // namespace lamo

#endif  // LAMO_OBS_PROMETHEUS_H_
