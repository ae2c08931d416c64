#include "router/router.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <sstream>
#include <thread>

#include "obs/obs.h"
#include "obs/prometheus.h"
#include "serve/request.h"

namespace lamo {
namespace {

using Clock = std::chrono::steady_clock;

/// router.* metrics. request_us covers every request (parse errors
/// included), so its count always equals router.requests.
/// backend_requests is incremented once per backend-served forward, at the
/// same site as proxied — lamo_report_check asserts the two stay equal, the
/// "no request lost or double-counted between front and backends" invariant.
/// ids_issued counts request IDs stamped (queries and unparseable lines);
/// errors counts only router-originated failures (see RouterStats), so
/// ids_issued == backend_requests + errors is the end-to-end conservation
/// law lamo_report_check enforces: every stamped request was either answered
/// by a backend or turned into a router error, never lost, never both.
const size_t kObsRequests = ObsCounterId("router.requests");
const size_t kObsErrors = ObsCounterId("router.errors");
const size_t kObsProxied = ObsCounterId("router.proxied");
const size_t kObsBackendRequests = ObsCounterId("router.backend_requests");
const size_t kObsRetries = ObsCounterId("router.retries");
const size_t kObsReloads = ObsCounterId("router.reloads");
const size_t kObsConnections = ObsCounterId("router.connections");
const size_t kObsIdsIssued = ObsCounterId("router.ids_issued");
const size_t kObsAccessLogged = ObsCounterId("router.access_logged");
/// Edge mutations (ADDEDGE/DELEDGE) fanned out to every backend. These are
/// admin-style: id 0, not counted as proxied/backend_requests (they go to
/// all N backends, which would break the proxied == backend_requests
/// invariant), and a backend-relayed rejection is not a router error.
const size_t kObsUpdatesFanned = ObsCounterId("router.updates_fanned");
const size_t kHistRequestUs = ObsHistogramId("router.request_us");

uint64_t ElapsedUs(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

/// First whitespace-separated token of `line` plus the remainder (trimmed).
void SplitVerb(const std::string& line, std::string* verb,
               std::string* rest) {
  std::istringstream in(line);
  in >> *verb;
  std::getline(in, *rest);
  const size_t start = rest->find_first_not_of(" \t\r");
  if (start == std::string::npos) {
    rest->clear();
  } else {
    const size_t end = rest->find_last_not_of(" \t\r");
    *rest = rest->substr(start, end - start + 1);
  }
}

/// Parses one `key value...` payload line of a backend STATS response.
void ParseStatsLine(const std::string& line,
                    std::map<std::string, std::string>* fields) {
  const size_t space = line.find(' ');
  if (space == std::string::npos) return;
  (*fields)[line.substr(0, space)] = line.substr(space + 1);
}

}  // namespace

RouterService::RouterService(Cluster* cluster, bool sharded)
    : cluster_(cluster), sharded_(sharded), ring_(cluster->size()) {}

RouterService::~RouterService() {
  std::lock_guard<std::mutex> lock(reload_worker_mu_);
  if (reload_worker_.joinable()) reload_worker_.join();
}

void RouterService::OnConnection() {
  stats_.connections.fetch_add(1, std::memory_order_relaxed);
  ObsIncrement(kObsConnections);
}

std::string RouterService::Handle(const std::string& line) {
  const bool observed = ObsEnabled();
  const bool timed = observed || access_log_ != nullptr;
  const Clock::time_point start = timed ? Clock::now() : Clock::time_point();
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  ObsIncrement(kObsRequests);

  std::string response;
  std::string verb, rest;
  SplitVerb(line, &verb, &rest);
  // Every query gets a fresh monotonic request ID, forwarded to the backend
  // as a `#<id>` line prefix; unparseable lines are stamped too so the
  // ids_issued == backend_requests + errors conservation law closes.
  // Admin verbs answered in-process (HEALTH/STATS/METRICS/RELOAD) carry
  // id 0 in the access log.
  uint64_t id = 0;
  bool router_error = false;  // router-originated failure (not a relayed ERR)
  RouteResult routed;
  if (verb == "RELOAD") {
    response = Reload(rest);
  } else {
    auto parsed = ParseRequest(line);
    if (!parsed.ok()) {
      id = next_id_.fetch_add(1, std::memory_order_relaxed);
      stats_.ids_issued.fetch_add(1, std::memory_order_relaxed);
      ObsIncrement(kObsIdsIssued);
      router_error = true;
      response = FormatErrorResponse(parsed.status());
    } else {
      const Request& request = *parsed;
      switch (request.type) {
        case RequestType::kHealth:
          response = Health();
          break;
        case RequestType::kStats:
          response = StatsView();
          break;
        case RequestType::kMetrics:
          response = Metrics();
          break;
        case RequestType::kAddEdge:
        case RequestType::kDelEdge:
          // Admin-style (id 0): applied on every backend or reported as a
          // failure, never silently partial.
          response = FanOutUpdate(request);
          break;
        case RequestType::kPredict:
        case RequestType::kMotifs:
        case RequestType::kTermInfo:
        case RequestType::kPredictEdge: {
          id = next_id_.fetch_add(1, std::memory_order_relaxed);
          stats_.ids_issued.fetch_add(1, std::memory_order_relaxed);
          ObsIncrement(kObsIdsIssued);
          // Forward the canonical spelling so every client phrasing of the
          // same query shares one backend cache entry; TERMINFO may go to
          // any backend (every shard keeps the full ontology), the ring
          // gives cache affinity in both modes.
          const std::string forwarded =
              "#" + std::to_string(id) + " " + CacheKey(request);
          if (request.type == RequestType::kTermInfo) {
            response = Route("t:" + request.term, 0, false, forwarded, &routed);
          } else {
            response = Route("p:" + std::to_string(request.protein),
                             request.protein, sharded_, forwarded, &routed);
          }
          router_error = !routed.from_backend;
          break;
        }
      }
    }
  }

  if (router_error && response.rfind("ERR", 0) == 0) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    ObsIncrement(kObsErrors);
  }
  const uint64_t total_us = timed ? ElapsedUs(start) : 0;
  if (observed) ObsObserve(kHistRequestUs, total_us);
  if (access_log_ != nullptr) {
    AccessLog::Entry entry;
    entry.id = id;
    entry.verb = verb.empty() ? "-" : verb;
    entry.request = line;
    entry.ok = response.rfind("ERR", 0) != 0;
    entry.total_us = total_us;
    if (routed.from_backend) {
      entry.backend = static_cast<int64_t>(routed.backend);
      entry.spans_us.emplace_back("backend_us", routed.backend_us);
      entry.spans_us.emplace_back(
          "route_us", total_us >= routed.backend_us
                          ? total_us - routed.backend_us
                          : 0);
    } else {
      entry.spans_us.emplace_back("handle_us", total_us);
    }
    if (access_log_->Log(entry)) ObsIncrement(kObsAccessLogged);
  }
  return response;
}

std::string RouterService::Route(const std::string& key, uint32_t protein,
                                 bool pinned, const std::string& line,
                                 RouteResult* result) {
  const std::vector<size_t> preference =
      pinned ? std::vector<size_t>{ShardBackend(protein, cluster_->size())}
             : ring_.Preference(key);

  const Clock::time_point deadline = cluster_->RetryDeadline();
  Status last = Status::Unavailable("no backend attempted");
  bool retried = false;
  while (true) {
    // Pick this attempt's backend. Pinned (sharded) requests have exactly
    // one valid destination and wait for it; replicated requests use the
    // ring primary when it is up, otherwise the least-loaded up candidate.
    size_t index = preference[0];
    bool candidate_up =
        cluster_->backend(index).state() == BackendState::kUp;
    if (!candidate_up && !pinned) {
      uint64_t best_load = 0;
      for (const size_t cand : preference) {
        const Backend& backend = cluster_->backend(cand);
        if (backend.state() != BackendState::kUp) continue;
        if (!candidate_up || backend.inflight() < best_load) {
          candidate_up = true;
          index = cand;
          best_load = backend.inflight();
        }
      }
    }
    if (candidate_up) {
      std::string response;
      const Clock::time_point attempt_start = Clock::now();
      last = cluster_->backend(index).SendRequest(line, deadline, &response);
      if (last.ok()) {
        if (retried) {
          stats_.retries.fetch_add(1, std::memory_order_relaxed);
          ObsIncrement(kObsRetries);
        }
        stats_.proxied.fetch_add(1, std::memory_order_relaxed);
        ObsIncrement(kObsProxied);
        ObsIncrement(kObsBackendRequests);
        if (result != nullptr) {
          result->from_backend = true;
          result->backend = index;
          result->backend_us = ElapsedUs(attempt_start);
        }
        return response;
      }
    } else {
      last = Status::Unavailable("backend " + std::to_string(index) + " " +
                                 BackendStateName(
                                     cluster_->backend(index).state()));
    }
    if (Clock::now() >= deadline) break;
    retried = true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  if (retried) {
    stats_.retries.fetch_add(1, std::memory_order_relaxed);
    ObsIncrement(kObsRetries);
  }
  return FormatErrorResponse(last);
}

std::string RouterService::FanOutUpdate(const Request& request) {
  // An edge mutation must land on every backend or the shards' global
  // frequency/strength state diverges, so refuse up front unless the whole
  // cluster is up — the client retries once the supervisor has respawned
  // the missing backend.
  const std::string line = CacheKey(request);
  for (size_t i = 0; i < cluster_->size(); ++i) {
    const BackendState state = cluster_->backend(i).state();
    if (state != BackendState::kUp) {
      return FormatErrorResponse(Status::Unavailable(
          "backend " + std::to_string(i) + " " + BackendStateName(state) +
          "; update not applied"));
    }
  }
  size_t applied = 0;
  for (size_t i = 0; i < cluster_->size(); ++i) {
    std::string response;
    const Status status = cluster_->backend(i).SendRequest(
        line, cluster_->RetryDeadline(), &response);
    const bool ok = status.ok() && response.rfind("OK", 0) == 0;
    if (ok) {
      ++applied;
      continue;
    }
    if (applied == 0 && status.ok()) {
      // First backend rejected (bad vertex, duplicate edge, ...). Nothing
      // has been applied anywhere, and the same validation would fail on
      // every backend, so relay its answer verbatim.
      return response;
    }
    std::string detail = status.ok()
                             ? response.substr(0, response.find('\n'))
                             : status.message();
    return FormatErrorResponse(Status::Internal(
        "backend " + std::to_string(i) + " failed \"" + line + "\" (" +
        detail + "); applied on " + std::to_string(applied) + "/" +
        std::to_string(cluster_->size()) +
        " backends — cluster may be inconsistent, RELOAD to converge"));
  }
  ObsIncrement(kObsUpdatesFanned);
  char out[256];
  std::snprintf(out, sizeof out, "applied %s backends=%zu", line.c_str(),
                applied);
  return FormatOkResponse({out});
}

std::string RouterService::Health() {
  const size_t up = cluster_->num_up();
  const size_t total = cluster_->size();
  char line[256];
  std::snprintf(line, sizeof line,
                "%s backends=%zu/%zu mode=%s snapshot=%s reloads=%llu",
                up == total ? "ready" : "degraded", up, total,
                sharded_ ? "sharded" : "replicated",
                cluster_->base_snapshot().c_str(),
                static_cast<unsigned long long>(cluster_->reloads()));
  return FormatOkResponse({line});
}

std::string RouterService::StatsView() {
  std::vector<std::string> lines;
  lines.push_back(std::string("mode ") +
                  (sharded_ ? "sharded" : "replicated"));
  lines.push_back("backends " + std::to_string(cluster_->size()));
  lines.push_back("snapshot " + cluster_->base_snapshot());
  lines.push_back(
      "requests " +
      std::to_string(stats_.requests.load(std::memory_order_relaxed)));
  lines.push_back(
      "errors " + std::to_string(stats_.errors.load(std::memory_order_relaxed)));
  lines.push_back(
      "proxied " +
      std::to_string(stats_.proxied.load(std::memory_order_relaxed)));
  lines.push_back(
      "retries " +
      std::to_string(stats_.retries.load(std::memory_order_relaxed)));
  lines.push_back("reloads " + std::to_string(cluster_->reloads()));
  lines.push_back(
      "ids_issued " +
      std::to_string(stats_.ids_issued.load(std::memory_order_relaxed)));
  lines.push_back(
      "connections " +
      std::to_string(stats_.connections.load(std::memory_order_relaxed)));
  // Monotonic-clock fields so external scrapers can turn counter deltas
  // into rates (same contract as `lamo serve` STATS).
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "uptime_s %.3f",
                std::chrono::duration<double>(Clock::now() - start_).count());
  lines.emplace_back(buffer);
  std::snprintf(buffer, sizeof buffer, "start_time %.3f",
                std::chrono::duration<double>(start_.time_since_epoch()).count());
  lines.emplace_back(buffer);
  lines.push_back(std::string(kObsPeakRssGauge) + " " +
                  std::to_string(ObsProcessPeakRssKb()));

  // One line per backend with the identity fields from its own STATS —
  // after a rolling reload this is how an operator verifies every backend
  // swapped onto the new model (matching checksums), straight through the
  // router.
  for (size_t i = 0; i < cluster_->size(); ++i) {
    Backend& backend = cluster_->backend(i);
    const BackendState state = backend.state();
    std::string line = "backend " + std::to_string(i) + " " +
                       BackendStateName(state) +
                       " port=" + std::to_string(backend.port()) +
                       " pid=" + std::to_string(backend.pid()) +
                       " inflight=" + std::to_string(backend.inflight()) +
                       " respawns=" + std::to_string(backend.respawns());
    if (state == BackendState::kUp) {
      std::string response;
      if (backend.SendRequest("STATS", cluster_->RetryDeadline(), &response)
              .ok() &&
          response.rfind("OK ", 0) == 0) {
        std::map<std::string, std::string> fields;
        std::istringstream in(response);
        std::string payload_line;
        std::getline(in, payload_line);  // OK <n>
        while (std::getline(in, payload_line)) {
          ParseStatsLine(payload_line, &fields);
        }
        line += " snapshot=" + fields["snapshot_path"] +
                " checksum=" + fields["snapshot_checksum"] +
                " shard=" + fields["shard"] +
                " predictor=" + fields["predictor"] +
                " requests=" + fields["requests"];
      }
    }
    lines.push_back(line);
  }
  return FormatOkResponse(lines);
}

std::string RouterService::Metrics() {
  // The router's own registry first (its serve.* instrumentation is all
  // zero and therefore omitted by CollectPromFamilies, so the router-level
  // families are exclusively router.*, uptime and gauges)...
  std::vector<PromFamily> families;
  {
    std::lock_guard<std::mutex> lock(metrics_mu_);
    const Clock::time_point now = Clock::now();
    const double uptime_s = std::chrono::duration<double>(now - start_).count();
    const double start_time_s =
        std::chrono::duration<double>(start_.time_since_epoch()).count();
    const uint64_t now_ms = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(now - start_)
            .count());
    ObsSink* sink = GetObsSink();
    families = CollectPromFamilies(sink, sink != nullptr ? &windows_ : nullptr,
                                   now_ms, uptime_s, start_time_s);
  }
  // ...then every up backend's METRICS scrape re-exported with
  // backend/shard labels injected, merged at family level so each `# TYPE`
  // header appears once with all backends' samples grouped under it.
  for (size_t i = 0; i < cluster_->size(); ++i) {
    Backend& backend = cluster_->backend(i);
    if (backend.state() != BackendState::kUp) continue;
    std::string response;
    if (!backend.SendRequest("METRICS", cluster_->RetryDeadline(), &response)
             .ok() ||
        response.rfind("OK ", 0) != 0) {
      continue;
    }
    const size_t newline = response.find('\n');
    const std::string payload =
        newline == std::string::npos ? std::string() : response.substr(newline + 1);
    std::vector<PromFamily> scraped;
    std::string error;
    if (!ParsePromFamilies(payload, &scraped, &error)) continue;
    const std::string shard =
        sharded_ ? std::to_string(i) + "/" + std::to_string(cluster_->size())
                 : "0/1";
    MergePromFamilies(&families, scraped,
                      "backend=\"" + std::to_string(i) + "\",shard=\"" + shard +
                          "\"");
  }
  return FormatOkResponse(RenderPromLines(families));
}

std::string RouterService::Reload(const std::string& path) {
  if (path.empty()) {
    return FormatErrorResponse(
        Status::InvalidArgument("RELOAD requires a snapshot path"));
  }
  const Status status = cluster_->Reload(path);
  if (!status.ok()) return FormatErrorResponse(status);
  ObsIncrement(kObsReloads);
  char line[512];
  std::snprintf(line, sizeof line, "reloaded backends=%zu snapshot=%s",
                cluster_->size(), path.c_str());
  return FormatOkResponse({line});
}

void RouterService::ReloadAsync() {
  bool expected = false;
  if (!reload_running_.compare_exchange_strong(expected, true)) return;
  std::lock_guard<std::mutex> lock(reload_worker_mu_);
  if (reload_worker_.joinable()) reload_worker_.join();
  reload_worker_ = std::thread([this] {
    const Status status = cluster_->Reload(cluster_->base_snapshot());
    if (status.ok()) ObsIncrement(kObsReloads);
    reload_running_.store(false, std::memory_order_release);
  });
}

}  // namespace lamo
