// lamo_report_check — validates a JSON run report written by `lamo
// --report` against the schema documented in docs/FORMATS.md. Exits 0 when
// every required key is present with the right shape, 1 with a diagnostic
// otherwise. Extra arguments name counters that must be present *and*
// nonzero; a `hist:` prefix demands a histogram with a nonzero count
// instead, a `gauge:` prefix a nonzero gauge, and a `phase:` prefix a phase
// of that name at any depth of the phase tree. Used by the
// report_schema ctest; handy interactively too:
//
//   lamo mine --graph g.txt --report r.json
//   lamo_report_check r.json esu.subgraphs gauge:process.peak_rss_kb
//
// Only schema version 2 is accepted; any other lamo_report_version fails.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/json.h"
#include "util/atomic_io.h"

namespace lamo {
namespace {

int Fail(const std::string& message) {
  std::fprintf(stderr, "report check failed: %s\n", message.c_str());
  return 1;
}

const JsonValue* RequireMember(const JsonValue& object, const char* key,
                               JsonValue::Type type, int* rc) {
  const JsonValue* value = object.Find(key);
  if (value == nullptr) {
    *rc = Fail(std::string("missing key \"") + key + "\"");
    return nullptr;
  }
  if (value->type != type) {
    *rc = Fail(std::string("key \"") + key + "\" has the wrong type");
    return nullptr;
  }
  return value;
}

// A phase node needs name/wall_ms/children, recursively.
bool CheckPhase(const JsonValue& phase, int* rc) {
  if (RequireMember(phase, "name", JsonValue::Type::kString, rc) == nullptr)
    return false;
  if (RequireMember(phase, "wall_ms", JsonValue::Type::kNumber, rc) == nullptr)
    return false;
  const JsonValue* children =
      RequireMember(phase, "children", JsonValue::Type::kArray, rc);
  if (children == nullptr) return false;
  for (const JsonValue& child : children->items) {
    if (!CheckPhase(child, rc)) return false;
  }
  return true;
}

// True iff `name` labels one of `phases` or any of their descendants.
bool HasPhase(const JsonValue& phases, const char* name) {
  for (const JsonValue& phase : phases.items) {
    const JsonValue* phase_name = phase.Find("name");
    if (phase_name != nullptr && phase_name->string_value == name) return true;
    const JsonValue* children = phase.Find("children");
    if (children != nullptr && HasPhase(*children, name)) return true;
  }
  return false;
}

// Validates one histogram entry and its invariants: required numeric fields,
// bucket counts summing to "count", strictly increasing bucket bounds, and
// ordered percentiles confined to [min, max] (empty histograms may keep all
// fields at zero).
int CheckHistogram(const std::string& name, const JsonValue& hist) {
  const char* fields[] = {"count", "sum", "min", "max", "p50", "p90", "p99"};
  for (const char* field : fields) {
    const JsonValue* value = hist.Find(field);
    if (value == nullptr || !value->is_number()) {
      return Fail("histogram \"" + name + "\": missing numeric \"" + field +
                  "\"");
    }
  }
  const JsonValue* buckets = hist.Find("buckets");
  if (buckets == nullptr || !buckets->is_array()) {
    return Fail("histogram \"" + name + "\": missing \"buckets\" array");
  }
  const double count = hist.Find("count")->number_value;
  double bucket_total = 0.0;
  double previous_hi = -1.0;
  for (const JsonValue& bucket : buckets->items) {
    const JsonValue* lo = bucket.Find("lo");
    const JsonValue* hi = bucket.Find("hi");
    const JsonValue* bucket_count = bucket.Find("count");
    if (lo == nullptr || !lo->is_number() || hi == nullptr ||
        !hi->is_number() || bucket_count == nullptr ||
        !bucket_count->is_number()) {
      return Fail("histogram \"" + name + "\": malformed bucket");
    }
    if (lo->number_value > hi->number_value) {
      return Fail("histogram \"" + name + "\": bucket with lo > hi");
    }
    if (lo->number_value <= previous_hi) {
      return Fail("histogram \"" + name + "\": bucket bounds not increasing");
    }
    if (bucket_count->number_value <= 0.0) {
      return Fail("histogram \"" + name + "\": empty bucket emitted");
    }
    previous_hi = hi->number_value;
    bucket_total += bucket_count->number_value;
  }
  if (bucket_total != count) {
    return Fail("histogram \"" + name + "\": bucket counts do not sum to " +
                std::to_string(static_cast<uint64_t>(count)));
  }
  if (count == 0.0) return 0;  // empty: percentiles/min/max are all zero
  const double min = hist.Find("min")->number_value;
  const double max = hist.Find("max")->number_value;
  const double p50 = hist.Find("p50")->number_value;
  const double p90 = hist.Find("p90")->number_value;
  const double p99 = hist.Find("p99")->number_value;
  if (min > max) return Fail("histogram \"" + name + "\": min > max");
  if (!(p50 <= p90 && p90 <= p99)) {
    return Fail("histogram \"" + name + "\": percentiles not monotone");
  }
  if (p50 < min || p99 > max) {
    return Fail("histogram \"" + name + "\": percentiles outside [min, max]");
  }
  return 0;
}

int Check(const std::string& path, int num_required, char** required) {
  std::string text;
  if (!ReadFileToString(path, &text).ok()) return Fail("cannot open " + path);

  JsonValue report;
  std::string error;
  if (!ParseJson(text, &report, &error)) return Fail("bad JSON: " + error);
  if (!report.is_object()) return Fail("top level is not an object");

  int rc = 0;
  const JsonValue* version = RequireMember(
      report, "lamo_report_version", JsonValue::Type::kNumber, &rc);
  if (version == nullptr) return rc;
  if (version->number_value != 2.0) {
    return Fail("unsupported lamo_report_version");
  }
  RequireMember(report, "command", JsonValue::Type::kString, &rc);
  RequireMember(report, "threads", JsonValue::Type::kNumber, &rc);
  RequireMember(report, "wall_ms", JsonValue::Type::kNumber, &rc);
  const JsonValue* phases =
      RequireMember(report, "phases", JsonValue::Type::kArray, &rc);
  const JsonValue* counters =
      RequireMember(report, "counters", JsonValue::Type::kObject, &rc);
  const JsonValue* gauges =
      RequireMember(report, "gauges", JsonValue::Type::kObject, &rc);
  const JsonValue* histograms =
      RequireMember(report, "histograms", JsonValue::Type::kObject, &rc);
  const JsonValue* workers =
      RequireMember(report, "workers", JsonValue::Type::kArray, &rc);
  if (rc != 0) return rc;

  for (const JsonValue& phase : phases->items) {
    if (!CheckPhase(phase, &rc)) return rc;
  }
  for (const auto& [name, value] : counters->members) {
    if (!value.is_number()) {
      return Fail("counter \"" + name + "\" not a number");
    }
  }
  for (const auto& [name, value] : gauges->members) {
    if (!value.is_number()) {
      return Fail("gauge \"" + name + "\" not a number");
    }
  }
  // The process's own peak RSS (VmHWM, kB): a running process has resident
  // pages, so a present value must be a positive whole number. Guarded on
  // presence so reports from builds predating the gauge still check out.
  if (const JsonValue* rss = gauges->Find("process.peak_rss_kb");
      rss != nullptr &&
      (rss->number_value <= 0.0 ||
       rss->number_value != static_cast<double>(
                                static_cast<uint64_t>(rss->number_value)))) {
    return Fail("gauge \"process.peak_rss_kb\" is not a positive kB count");
  }
  // Every report ships trace-loss accounting, traced or not.
  const JsonValue* dropped = counters->Find("trace.dropped");
  if (dropped == nullptr || !dropped->is_number()) {
    return Fail("report lacks the \"trace.dropped\" counter");
  }
  for (const auto& [name, hist] : histograms->members) {
    if (!hist.is_object()) {
      return Fail("histogram \"" + name + "\" not an object");
    }
    const int hist_rc = CheckHistogram(name, hist);
    if (hist_rc != 0) return hist_rc;
  }
  const auto counter_value = [&](const char* name) {
    const JsonValue* value = counters->Find(name);
    return value != nullptr && value->is_number() ? value->number_value : 0.0;
  };
  // Serve reports: when the daemon recorded traffic, the serve.* metrics
  // must be mutually consistent — the cache can't have resolved more lookups
  // than there were requests, errors are a subset of requests, and every
  // request must have been timed into the serve.request_us histogram.
  const JsonValue* serve_requests = counters->Find("serve.requests");
  if (serve_requests != nullptr && serve_requests->is_number() &&
      serve_requests->number_value > 0.0) {
    const double requests = serve_requests->number_value;
    if (counter_value("serve.errors") > requests) {
      return Fail("serve.errors exceeds serve.requests");
    }
    if (counter_value("serve.cache_hits") +
            counter_value("serve.cache_misses") >
        requests) {
      return Fail("serve cache hits+misses exceed serve.requests");
    }
    // Access logging is sampled: at most one log line per request.
    if (counter_value("serve.access_logged") > requests) {
      return Fail("serve.access_logged exceeds serve.requests");
    }
    const JsonValue* hist = histograms->Find("serve.request_us");
    const JsonValue* count = hist == nullptr ? nullptr : hist->Find("count");
    if (count == nullptr || !count->is_number() ||
        count->number_value != requests) {
      return Fail(
          "histogram \"serve.request_us\" count does not match "
          "serve.requests");
    }
  }
  // Router reports: the front-end only counts a backend request at the
  // moment it successfully proxies a client request, so the two counters
  // must agree exactly; retried requests are a subset of all requests; and
  // every client request must have been timed into router.request_us.
  const JsonValue* router_requests = counters->Find("router.requests");
  if (router_requests != nullptr && router_requests->is_number() &&
      router_requests->number_value > 0.0) {
    const double requests = router_requests->number_value;
    if (counter_value("router.backend_requests") !=
        counter_value("router.proxied")) {
      return Fail("router.backend_requests does not match router.proxied");
    }
    if (counter_value("router.retries") > requests) {
      return Fail("router.retries exceeds router.requests");
    }
    if (counter_value("router.errors") > requests) {
      return Fail("router.errors exceeds router.requests");
    }
    // ID conservation: every stamped request either reached a backend or
    // ended in a router-originated error — nothing double-counted, nothing
    // dropped. Guarded on presence so archived pre-tracing reports still
    // check out.
    if (counters->Find("router.ids_issued") != nullptr &&
        counter_value("router.ids_issued") !=
            counter_value("router.backend_requests") +
                counter_value("router.errors")) {
      return Fail(
          "router.ids_issued does not match router.backend_requests + "
          "router.errors");
    }
    const JsonValue* hist = histograms->Find("router.request_us");
    const JsonValue* count = hist == nullptr ? nullptr : hist->Find("count");
    if (count == nullptr || !count->is_number() ||
        count->number_value != requests) {
      return Fail(
          "histogram \"router.request_us\" count does not match "
          "router.requests");
    }
  }
  // Predict reports must say which backend answered (the registry key in
  // the "annotations" object), so archived reports and A/B comparisons stay
  // attributable. Other commands may omit annotations — older reports
  // predate the key entirely.
  const JsonValue* command = report.Find("command");
  const JsonValue* annotations = report.Find("annotations");
  if (annotations != nullptr && !annotations->is_object()) {
    return Fail("\"annotations\" is not an object");
  }
  if (command != nullptr && command->is_string() &&
      command->string_value == "predict") {
    const JsonValue* predictor =
        annotations == nullptr ? nullptr : annotations->Find("predictor");
    if (predictor == nullptr || !predictor->is_string() ||
        predictor->string_value.empty()) {
      return Fail("predict report lacks annotations.predictor");
    }
  }
  // Predictor backends: every scored protein that produced a ranking had at
  // least one vote behind it, so predictions can never outnumber votes; and
  // the GDS signature matrix is per-protein rows of the 73 graphlet orbits,
  // so its cell counter must be a multiple of 73.
  if (counter_value("predict.predictions") > counter_value("predict.votes")) {
    return Fail("predict.predictions exceeds predict.votes");
  }
  {
    const double cells = counter_value("gds.signature_cells");
    if (cells != 73.0 * static_cast<uint64_t>(cells / 73.0)) {
      return Fail("gds.signature_cells is not a multiple of 73 orbits");
    }
  }
  // Shared canonicalization table: Lookup ticks the lookup counter and then
  // exactly one of hit/miss, so the totals must agree exactly on every run
  // that used the table.
  if (counters->Find("esu.canon_shared_lookups") != nullptr &&
      counter_value("esu.canon_shared_lookups") !=
          counter_value("esu.canon_shared_hits") +
              counter_value("esu.canon_shared_misses")) {
    return Fail(
        "esu.canon_shared_lookups does not match esu.canon_shared_hits + "
        "esu.canon_shared_misses");
  }
  // Checkpointed runs: a resume can only replay chunks the run actually
  // tracked, and atomic checkpoint/output replaces are durable — one fsynced
  // rename per write, so the two counters must agree exactly.
  if (counters->Find("checkpoint.resumed_chunks") != nullptr &&
      counter_value("checkpoint.resumed_chunks") >
          counter_value("checkpoint.total_chunks")) {
    return Fail("checkpoint.resumed_chunks exceeds checkpoint.total_chunks");
  }
  if (counter_value("checkpoint.writes") > 0.0 &&
      counter_value("checkpoint.writes") !=
          counter_value("checkpoint.fsyncs")) {
    return Fail("checkpoint.writes does not match checkpoint.fsyncs");
  }
  // Live-update runs: every applied edge mutation is exactly one ADDEDGE or
  // one DELEDGE; journal replay only re-applies updates that were counted as
  // applied; and the incremental path re-enumerates pair-anchored subgraphs
  // through the same ESU emit hook, so it can never claim more re-enumerated
  // subgraphs than the run's esu.subgraphs total. Guarded on presence so
  // reports from builds predating live updates still check out.
  if (counters->Find("update.applied") != nullptr) {
    if (counter_value("update.applied") !=
        counter_value("update.added") + counter_value("update.deleted")) {
      return Fail("update.applied does not match update.added + "
                  "update.deleted");
    }
    if (counter_value("update.journal_replayed") >
        counter_value("update.applied")) {
      return Fail("update.journal_replayed exceeds update.applied");
    }
    if (counters->Find("esu.subgraphs") != nullptr &&
        counter_value("update.resubgraphs") > counter_value("esu.subgraphs")) {
      return Fail("update.resubgraphs exceeds esu.subgraphs");
    }
  }
  for (const JsonValue& worker : workers->items) {
    if (RequireMember(worker, "name", JsonValue::Type::kString, &rc) ==
        nullptr)
      return rc;
    if (RequireMember(worker, "tasks", JsonValue::Type::kNumber, &rc) ==
        nullptr)
      return rc;
    if (RequireMember(worker, "counters", JsonValue::Type::kObject, &rc) ==
        nullptr)
      return rc;
  }

  // Demanded counters/histograms prove the pipeline recorded real work, not
  // just a well-shaped empty report.
  for (int i = 0; i < num_required; ++i) {
    if (std::strncmp(required[i], "hist:", 5) == 0) {
      const char* name = required[i] + 5;
      const JsonValue* hist = histograms->Find(name);
      const JsonValue* count =
          hist == nullptr ? nullptr : hist->Find("count");
      if (count == nullptr || !count->is_number() ||
          count->number_value <= 0.0) {
        return Fail(std::string("histogram \"") + name +
                    "\" missing or empty");
      }
      continue;
    }
    if (std::strncmp(required[i], "phase:", 6) == 0) {
      const char* name = required[i] + 6;
      if (!HasPhase(*phases, name)) {
        return Fail(std::string("phase \"") + name + "\" missing");
      }
      continue;
    }
    if (std::strncmp(required[i], "gauge:", 6) == 0) {
      const char* name = required[i] + 6;
      const JsonValue* value = gauges->Find(name);
      if (value == nullptr || value->number_value <= 0.0) {
        return Fail(std::string("gauge \"") + name + "\" missing or zero");
      }
      continue;
    }
    const JsonValue* value = counters->Find(required[i]);
    if (value == nullptr || !value->is_number() || value->number_value <= 0.0) {
      return Fail(std::string("counter \"") + required[i] +
                  "\" missing or zero");
    }
  }
  std::printf("report OK: %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace lamo

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: lamo_report_check <report.json> "
                 "[required-nonzero-counter | hist:NAME | gauge:NAME | "
                 "phase:NAME ...]\n");
    return 2;
  }
  return lamo::Check(argv[1], argc - 2, argv + 2);
}
