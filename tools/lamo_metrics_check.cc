// lamo_metrics_check — validates a Prometheus text exposition produced by
// the METRICS verb of `lamo serve` / `lamo router`. Exits 0 when the
// document is well-formed, 1 with a diagnostic otherwise. Checked beyond
// what the shared parser enforces:
//
//   * every histogram family's buckets are cumulative per label group,
//     strictly increasing in `le`, and end in `le="+Inf"` whose value
//     equals the group's `_count` sample; `_sum` and `_count` are present;
//   * the `lamo_uptime_seconds` / `lamo_start_time_seconds` gauges exist
//     (every exposition carries them, sink or no sink);
//   * with `--report report.json`, each unlabeled `<name>_total` sample is
//     cross-checked against the counter of the same obs name in the JSON
//     run report: the scrape happened while the daemon was still serving
//     and the report is written at shutdown, so (counters being monotone)
//     the scraped value must be <= the reported one. Same for histogram
//     `_count` samples. Counters absent on either side are fine.
//
// Used by the cli_metrics ctest; handy interactively too:
//
//   lamo_bench_client --port P --query METRICS > metrics.txt
//   lamo_metrics_check metrics.txt --report serve_report.json
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/prometheus.h"
#include "util/atomic_io.h"

namespace lamo {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "metrics check failed: %s\n", message.c_str());
  return 1;
}

/// The label set minus `le`, serialized as a grouping key (std::map keeps
/// it order-independent).
std::string GroupKey(const std::map<std::string, std::string>& labels) {
  std::string key;
  for (const auto& [k, v] : labels) {
    if (k == "le") continue;
    key += k + "=" + v + ";";
  }
  return key;
}

/// Per-label-group histogram state accumulated across a family's samples.
struct HistGroup {
  std::vector<std::pair<double, double>> buckets;  // (le, cumulative count)
  double count = -1.0;
  bool have_sum = false;
};

int CheckHistogramFamily(const PromFamily& family) {
  std::map<std::string, HistGroup> groups;
  std::string error;
  for (const std::string& line : family.samples) {
    PromSample sample;
    if (!ParsePromSample(line, &sample, &error)) return Fail(error);
    HistGroup& group = groups[GroupKey(sample.labels)];
    if (sample.name == family.name + "_bucket") {
      const auto le = sample.labels.find("le");
      if (le == sample.labels.end()) {
        return Fail("histogram '" + family.name + "': bucket without le");
      }
      const double bound = le->second == "+Inf"
                               ? HUGE_VAL
                               : std::strtod(le->second.c_str(), nullptr);
      group.buckets.emplace_back(bound, sample.value);
    } else if (sample.name == family.name + "_sum") {
      group.have_sum = true;
    } else if (sample.name == family.name + "_count") {
      group.count = sample.value;
    } else {
      return Fail("histogram '" + family.name + "': stray sample '" +
                  sample.name + "'");
    }
  }
  for (const auto& [key, group] : groups) {
    const std::string where =
        "histogram '" + family.name + "'" +
        (key.empty() ? std::string() : " {" + key + "}");
    if (group.buckets.empty()) return Fail(where + ": no buckets");
    double prev_le = -HUGE_VAL;
    double prev_cum = -1.0;
    for (const auto& [le, cum] : group.buckets) {
      if (le <= prev_le) return Fail(where + ": le bounds not increasing");
      if (cum < prev_cum) return Fail(where + ": buckets not cumulative");
      prev_le = le;
      prev_cum = cum;
    }
    if (group.buckets.back().first != HUGE_VAL) {
      return Fail(where + ": last bucket is not le=\"+Inf\"");
    }
    if (group.count < 0.0) return Fail(where + ": missing _count");
    if (!group.have_sum) return Fail(where + ": missing _sum");
    if (group.buckets.back().second != group.count) {
      return Fail(where + ": +Inf bucket does not equal _count");
    }
  }
  return 0;
}

/// The unlabeled sample of family `name` (the daemon's own series; the
/// router's re-exported backend series carry backend=/shard= labels and are
/// skipped). Returns false when the family or an unlabeled sample is absent.
bool FindOwnSample(const std::vector<PromFamily>& families,
                   const std::string& name, double* value) {
  for (const PromFamily& family : families) {
    if (family.name != name) continue;
    for (const std::string& line : family.samples) {
      PromSample sample;
      std::string error;
      if (!ParsePromSample(line, &sample, &error)) continue;
      if (sample.name == name && sample.labels.empty()) {
        *value = sample.value;
        return true;
      }
      // Histogram _count child, also unlabeled.
      if (sample.name == name + "_count" && sample.labels.empty()) {
        *value = sample.value;
        return true;
      }
    }
  }
  return false;
}

/// Cross-checks the exposition against a --report JSON written at shutdown:
/// scraped counter/histogram-count values must not exceed the final ones.
int CrossCheckReport(const std::vector<PromFamily>& families,
                     const std::string& report_path) {
  std::string text;
  if (!ReadFileToString(report_path, &text).ok()) {
    return Fail("cannot open " + report_path);
  }
  JsonValue report;
  std::string error;
  if (!ParseJson(text, &report, &error)) {
    return Fail(report_path + ": bad JSON: " + error);
  }
  const JsonValue* counters = report.Find("counters");
  if (counters == nullptr || !counters->is_object()) {
    return Fail(report_path + ": no \"counters\" object");
  }
  size_t checked = 0;
  for (const auto& [name, value] : counters->members) {
    if (!value.is_number()) continue;
    double scraped = 0.0;
    if (!FindOwnSample(families, PromMetricName(name) + "_total", &scraped)) {
      continue;  // zero at scrape time (omitted) or not in this exposition
    }
    if (scraped > value.number_value) {
      return Fail("counter " + name + ": scraped " + std::to_string(scraped) +
                  " exceeds final report value " +
                  std::to_string(value.number_value));
    }
    ++checked;
  }
  const JsonValue* histograms = report.Find("histograms");
  if (histograms != nullptr && histograms->is_object()) {
    for (const auto& [name, hist] : histograms->members) {
      const JsonValue* count = hist.is_object() ? hist.Find("count") : nullptr;
      if (count == nullptr || !count->is_number()) continue;
      double scraped = 0.0;
      if (!FindOwnSample(families, PromMetricName(name), &scraped)) continue;
      if (scraped > count->number_value) {
        return Fail("histogram " + name + ": scraped count " +
                    std::to_string(scraped) + " exceeds final report count " +
                    std::to_string(count->number_value));
      }
      ++checked;
    }
  }
  std::printf("report cross-check OK: %zu series within final totals\n",
              checked);
  return 0;
}

int Check(const std::string& path, const std::string& report_path) {
  std::string text;
  if (!ReadFileToString(path, &text).ok()) return Fail("cannot open " + path);
  // Tolerate a raw wire capture that still carries the `OK <n>` header.
  if (text.rfind("OK ", 0) == 0) {
    const size_t eol = text.find('\n');
    text.erase(0, eol == std::string::npos ? text.size() : eol + 1);
  }

  std::vector<PromFamily> families;
  std::string error;
  if (!ParsePromFamilies(text, &families, &error)) return Fail(error);
  if (families.empty()) return Fail("no metric families in " + path);

  for (const PromFamily& family : families) {
    for (const std::string& line : family.samples) {
      PromSample sample;
      if (!ParsePromSample(line, &sample, &error)) return Fail(error);
    }
    if (family.type == "histogram") {
      const int rc = CheckHistogramFamily(family);
      if (rc != 0) return rc;
    }
  }

  double uptime = 0.0;
  if (!FindOwnSample(families, "lamo_uptime_seconds", &uptime)) {
    return Fail("missing lamo_uptime_seconds gauge");
  }
  if (uptime < 0.0) return Fail("negative lamo_uptime_seconds");
  double start_time = 0.0;
  if (!FindOwnSample(families, "lamo_start_time_seconds", &start_time)) {
    return Fail("missing lamo_start_time_seconds gauge");
  }

  size_t samples = 0;
  for (const PromFamily& family : families) samples += family.samples.size();
  std::printf("metrics OK: %s (%zu families, %zu samples)\n", path.c_str(),
              families.size(), samples);
  if (!report_path.empty()) return CrossCheckReport(families, report_path);
  return 0;
}

}  // namespace
}  // namespace lamo

int main(int argc, char** argv) {
  std::string metrics_path;
  std::string report_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else if (metrics_path.empty()) {
      metrics_path = argv[i];
    } else {
      metrics_path.clear();
      break;
    }
  }
  if (metrics_path.empty()) {
    std::fprintf(stderr,
                 "usage: lamo_metrics_check <metrics.txt> "
                 "[--report report.json]\n");
    return 2;
  }
  return lamo::Check(metrics_path, report_path);
}
