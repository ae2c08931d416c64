#ifndef LAMO_OBS_RUN_REPORT_H_
#define LAMO_OBS_RUN_REPORT_H_

#include <cstdio>
#include <map>
#include <string>

#include "obs/obs.h"
#include "util/status.h"

namespace lamo {

/// Serializes one run's metrics as a JSON document (schema documented in
/// docs/FORMATS.md, "Run report"):
///
///   {
///     "lamo_report_version": 2,
///     "command": "mine",
///     "threads": 4,                  // resolved worker count
///     "wall_ms": 152.7,             // sink lifetime
///     "annotations": {"predictor": "gds", ...},   // command metadata
///     "phases":   [{"name": ..., "wall_ms": ..., "children": [...]}],
///     "counters": {"esu.subgraphs": 123456, ...},   // merged totals
///     "gauges":   {"process.peak_rss_kb": 25436, ...},
///     "histograms": {"esu.chunk_us": {"count": ..., "sum": ..., "min": ...,
///                    "max": ..., "p50": ..., "p90": ..., "p99": ...,
///                    "buckets": [{"lo": ..., "hi": ..., "count": ...}]}},
///     "workers":  [{"name": "main", "tasks": 37, "counters": {...}}, ...]
///   }
///
/// Every registered counter appears in "counters" and every registered
/// histogram in "histograms" (zeros/empties included) so the key set is
/// stable across workloads. "tasks" is the worker's `parallel.chunks`
/// value — the number of loop chunks it executed.
/// "gauges" holds the sink's explicitly set gauges plus
/// `process.peak_rss_kb`. Histogram "buckets" lists the nonzero log2
/// buckets with inclusive [lo, hi] value bounds; counts sum to "count" and
/// percentiles lie within [min, max] (invariants enforced by
/// tools/lamo_report_check).
/// "annotations" carries string facts about the run the counters cannot
/// express — e.g. which predictor backend `lamo predict` ran (required by
/// lamo_report_check for predict reports); always present, possibly empty.
std::string RunReportJson(
    const ObsSink& sink, const std::string& command, size_t threads,
    const std::map<std::string, std::string>& annotations = {});

/// Writes RunReportJson to `path` (trailing newline added).
Status WriteRunReport(
    const ObsSink& sink, const std::string& command, size_t threads,
    const std::string& path,
    const std::map<std::string, std::string>& annotations = {});

/// Prints a human-oriented summary (phases, nonzero counters, per-worker
/// task counts) to `out`; the CLI sends this to stderr under `--stats`.
void PrintRunSummary(const ObsSink& sink, const std::string& command,
                     size_t threads, std::FILE* out);

}  // namespace lamo

#endif  // LAMO_OBS_RUN_REPORT_H_
