#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <malloc.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstring>
#include <mutex>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/obs.h"
#include "obs/prometheus.h"
#include "parallel/parallel_for.h"
#include "predict/registry.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace lamo {
namespace {

/// Requests handled, by outcome. request_us covers every request (parse
/// errors included), so its count always equals serve.requests.
const size_t kObsRequests = ObsCounterId("serve.requests");
const size_t kObsErrors = ObsCounterId("serve.errors");
const size_t kObsCacheHits = ObsCounterId("serve.cache_hits");
const size_t kObsCacheMisses = ObsCounterId("serve.cache_misses");
const size_t kObsConnections = ObsCounterId("serve.connections");
const size_t kObsAccessLogged = ObsCounterId("serve.access_logged");
const size_t kHistRequestUs = ObsHistogramId("serve.request_us");

/// Overload-protection outcomes. timeouts counts expired request-line
/// budgets (slowloris partial lines); idle_reaped counts
/// silent closes of quiet connections; overlong_lines counts the
/// line-length guard firing; backpressure_waits counts poll cycles entered
/// with the listen socket parked because max_conns live connections exist.
const size_t kObsTimeouts = ObsCounterId("serve.timeouts");
const size_t kObsIdleReaped = ObsCounterId("serve.idle_reaped");
const size_t kObsOverlongLines = ObsCounterId("serve.overlong_lines");
const size_t kObsBackpressureWaits = ObsCounterId("serve.backpressure_waits");

/// Live-update telemetry. applied == added + deleted always (report-check
/// invariant); resubgraphs counts the connected k-sets re-enumerated around
/// mutated edges (each also ticks esu.subgraphs, so resubgraphs <=
/// esu.subgraphs holds in serve reports); journal_replayed counts entries
/// re-applied at AttachJournal time after a restart.
const size_t kObsUpdatesApplied = ObsCounterId("update.applied");
const size_t kObsUpdatesAdded = ObsCounterId("update.added");
const size_t kObsUpdatesDeleted = ObsCounterId("update.deleted");
const size_t kObsUpdateOccAdded = ObsCounterId("update.occ_added");
const size_t kObsUpdateOccRemoved = ObsCounterId("update.occ_removed");
const size_t kObsUpdateResubgraphs = ObsCounterId("update.resubgraphs");
const size_t kObsUpdateJournalReplayed = ObsCounterId("update.journal_replayed");
const size_t kObsUpdateCacheEvicted = ObsCounterId("update.cache_evicted");
const size_t kHistUpdateUs = ObsHistogramId("update.update_us");

/// Armed between the durable journal append and the in-memory apply: a
/// crash here proves replay reconstructs the acknowledged-but-unapplied
/// update (the "entry present" consistency case).
const size_t kFaultUpdateApply = FaultPointId("update.apply");

/// True for the verbs that need the snapshot lock exclusively.
bool NeedsExclusive(RequestType type) {
  return type == RequestType::kAddEdge || type == RequestType::kDelEdge;
}

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            start)
          .count());
}

// The verb token of a raw request line (request-ID tokens skipped), for
// access-log records of lines that may not parse.
std::string RequestVerb(const std::string& line) {
  size_t begin = line.find_first_not_of(" \t\r");
  while (begin != std::string::npos && line[begin] == '#') {
    const size_t end = line.find_first_of(" \t\r", begin);
    begin = end == std::string::npos
                ? std::string::npos
                : line.find_first_not_of(" \t\r", end);
  }
  if (begin == std::string::npos) return "-";
  const size_t end = line.find_first_of(" \t\r", begin);
  return line.substr(begin,
                     end == std::string::npos ? std::string::npos : end - begin);
}

}  // namespace

SnapshotService::SnapshotService(Snapshot snapshot, size_t cache_capacity)
    : snapshot_(std::move(snapshot)), cache_(cache_capacity) {
  context_.ppi = &snapshot_.graph;
  context_.categories = snapshot_.categories;
  context_.protein_categories = snapshot_.protein_categories;
  const Status status = UsePredictor("lms");
  LAMO_CHECK(status.ok());  // every snapshot carries the lms inputs
  // The update engine borrows the snapshot in place; snapshot_.graph keeps
  // its address across updates (contents are reassigned), so context_.ppi
  // stays valid.
  engine_ = std::make_unique<UpdateEngine>(&snapshot_);
}

Status SnapshotService::UsePredictor(const std::string& name) {
  PredictorInputs inputs;
  inputs.context = &context_;
  inputs.ontology = &snapshot_.ontology;
  inputs.motifs = &snapshot_.motifs;
  inputs.sites = &snapshot_.sites;
  inputs.gds_signatures = &snapshot_.gds_signatures;
  inputs.role_vectors = &snapshot_.role_vectors;
  inputs.role_dim = snapshot_.role_dim;
  auto made = MakePredictor(name, inputs);
  if (!made.ok()) return made.status();
  predictor_ = std::move(made).value();
  predictor_name_ = name;
  return Status::OK();
}

std::string SnapshotService::Handle(const std::string& line) {
  const bool observed = ObsEnabled();
  const bool timed = observed || access_log_ != nullptr;
  const Clock::time_point start = timed ? Clock::now() : Clock::time_point();
  stats_.requests.fetch_add(1, std::memory_order_relaxed);
  ObsIncrement(kObsRequests);

  std::string response;
  uint64_t request_id = 0;
  const char* cache_outcome = nullptr;
  bool ok_response = true;
  auto parsed = ParseRequest(line);
  if (!parsed.ok()) {
    stats_.errors.fetch_add(1, std::memory_order_relaxed);
    ObsIncrement(kObsErrors);
    response = FormatErrorResponse(parsed.status());
    ok_response = false;
  } else {
    const Request& request = *parsed;
    request_id = request.id;
    // Queries, PREDICT_EDGE among them, share the snapshot lock; only the
    // mutations take it exclusively. The cache operations sit inside the
    // lock so a reader can never Put a response computed against a
    // pre-update snapshot after the update's invalidation pass ran.
    std::shared_lock<std::shared_mutex> read_lock(snapshot_mu_,
                                                  std::defer_lock);
    std::unique_lock<std::shared_mutex> write_lock(snapshot_mu_,
                                                   std::defer_lock);
    // glibc's shared_mutex prefers readers, so overlapping queries (a stream
    // of PREDICT_EDGEs, say) could starve a writer forever. A writer holds
    // writer_gate_ while it waits, and a reader that sees one waiting passes
    // the gate first, so the readers already in drain and no new one starts.
    if (NeedsExclusive(request.type)) {
      writers_waiting_.fetch_add(1, std::memory_order_acq_rel);
      {
        std::lock_guard<std::mutex> gate(writer_gate_);
        write_lock.lock();
      }
      writers_waiting_.fetch_sub(1, std::memory_order_acq_rel);
    } else {
      if (writers_waiting_.load(std::memory_order_acquire) > 0) {
        std::lock_guard<std::mutex> gate(writer_gate_);
      }
      read_lock.lock();
    }
    const bool cacheable = IsCacheable(request.type) && cache_.capacity() > 0;
    const std::string key = cacheable ? CacheKey(request) : std::string();
    if (cacheable && cache_.Get(key, &response)) {
      stats_.cache_hits.fetch_add(1, std::memory_order_relaxed);
      ObsIncrement(kObsCacheHits);
      cache_outcome = "hit";
    } else {
      if (cacheable) {
        stats_.cache_misses.fetch_add(1, std::memory_order_relaxed);
        ObsIncrement(kObsCacheMisses);
        cache_outcome = "miss";
      }
      auto payload = Payload(request);
      if (!payload.ok()) {
        stats_.errors.fetch_add(1, std::memory_order_relaxed);
        ObsIncrement(kObsErrors);
        response = FormatErrorResponse(payload.status());
        ok_response = false;
      } else {
        response = FormatOkResponse(*payload);
        if (cacheable) cache_.Put(key, response);
      }
    }
  }
  const uint64_t total_us = timed ? MicrosSince(start) : 0;
  if (observed) ObsObserve(kHistRequestUs, total_us);
  if (access_log_ != nullptr) {
    AccessLog::Entry entry;
    entry.id = request_id;
    entry.verb = RequestVerb(line);
    entry.request = line;
    entry.ok = ok_response;
    entry.total_us = total_us;
    entry.cache = cache_outcome;
    entry.spans_us.emplace_back("handle_us", total_us);
    if (access_log_->Log(entry)) ObsIncrement(kObsAccessLogged);
  }
  return response;
}

StatusOr<std::vector<std::string>> SnapshotService::Payload(
    const Request& request) {
  switch (request.type) {
    case RequestType::kPredict:
      return Predict(request);
    case RequestType::kMotifs:
      return Motifs(request);
    case RequestType::kTermInfo:
      return TermInfo(request);
    case RequestType::kHealth:
      return Health();
    case RequestType::kStats:
      return Stats();
    case RequestType::kMetrics:
      return Metrics();
    case RequestType::kAddEdge:
    case RequestType::kDelEdge:
      return ApplyEdge(request);
    case RequestType::kPredictEdge:
      return PredictEdge(request);
  }
  return Status::Internal("unhandled request type");
}

StatusOr<std::vector<std::string>> SnapshotService::ApplyEdge(
    const Request& request) {
  const bool add = request.type == RequestType::kAddEdge;
  const VertexId u = request.protein;
  const VertexId v = request.protein2;
  Status status = engine_->Check(add, u, v);
  if (!status.ok()) return status;
  // Journal first (durably), then apply: at every kill point the journal
  // either misses the entry (update never acked — replay gives the
  // pre-update state) or holds it (replay gives the post-update state).
  if (journal_ != nullptr) {
    status = journal_->Append({add, u, v});
    if (!status.ok()) return status;
  }
  const FaultAction fault = FaultHit(kFaultUpdateApply);
  if (fault == FaultAction::kError) {
    return Status::Internal(
        "injected apply failure; the update is journaled and will replay on "
        "restart");
  }
  const Clock::time_point start = Clock::now();
  UpdateResult result;
  status = engine_->Apply(add, u, v, &result);
  if (!status.ok()) return status;
  // Rebuild the predictor over the patched snapshot: lms reads the patched
  // site index in place, but the other backends copy their inputs.
  status = UsePredictor(predictor_name_);
  if (!status.ok()) return status;
  const size_t evicted = InvalidateCache(result);

  stats_.updates.fetch_add(1, std::memory_order_relaxed);
  ObsIncrement(kObsUpdatesApplied);
  ObsIncrement(add ? kObsUpdatesAdded : kObsUpdatesDeleted);
  ObsAdd(kObsUpdateOccAdded, result.occ_added);
  ObsAdd(kObsUpdateOccRemoved, result.occ_removed);
  ObsAdd(kObsUpdateResubgraphs, result.resubgraphs);
  ObsAdd(kObsUpdateCacheEvicted, evicted);
  if (ObsEnabled()) ObsObserve(kHistUpdateUs, MicrosSince(start));

  char buffer[192];
  std::snprintf(buffer, sizeof buffer,
                "applied %s %u %u resubgraphs=%zu occ_added=%zu "
                "occ_removed=%zu affected=%zu evicted=%zu",
                add ? "ADDEDGE" : "DELEDGE", u, v, result.resubgraphs,
                result.occ_added, result.occ_removed, result.affected.size(),
                evicted);
  return std::vector<std::string>{buffer};
}

StatusOr<std::vector<std::string>> SnapshotService::PredictEdge(
    const Request& request) {
  EdgeScore score;
  Status status = engine_->ScoreEdge(request.protein, request.protein2,
                                     &score);
  if (!status.ok()) return status;
  std::vector<std::string> lines;
  char buffer[192];
  std::snprintf(buffer, sizeof buffer,
                "candidate edge %u %u score %.3f completions %zu motifs %zu",
                request.protein, request.protein2, score.score,
                score.completions, score.per_motif.size());
  lines.emplace_back(buffer);
  for (const auto& [mi, count] : score.per_motif) {
    const LabeledMotif& motif = snapshot_.motifs[mi];
    std::snprintf(buffer, sizeof buffer,
                  "  motif %u size %zu strength %.3f completions %zu", mi,
                  motif.size(), motif.strength, count);
    lines.emplace_back(buffer);
  }
  return lines;
}

size_t SnapshotService::InvalidateCache(const UpdateResult& result) {
  if (cache_.capacity() == 0) return 0;
  // gds ranks every protein against the whole signature matrix and role
  // vectors are globally normalized, so when those inputs moved every
  // PREDICT answer is suspect. lms answers depend only on the protein's
  // own sites and the strengths of motifs siting it — both folded into
  // `affected` by the engine.
  const bool all_predicts =
      (predictor_name_ == "gds" && result.signatures_changed) ||
      (predictor_name_ == "role" && result.roles_changed);
  std::unordered_set<std::string> exact;
  std::unordered_set<std::string> predict_prefixes;
  for (const VertexId p : result.affected) {
    exact.insert("MOTIFS " + std::to_string(p));
    predict_prefixes.insert("PREDICT " + std::to_string(p) + " ");
  }
  return cache_.EraseIf([&](const std::string& key) {
    if (key.rfind("PREDICT ", 0) == 0) {
      if (all_predicts) return true;
      const size_t space = key.find(' ', 8);
      return space != std::string::npos &&
             predict_prefixes.count(key.substr(0, space + 1)) > 0;
    }
    return exact.count(key) > 0;
  });
}

Status SnapshotService::AttachJournal(const std::string& path) {
  std::vector<DeltaEntry> replay;
  auto journal = UpdateJournal::Open(path, snapshot_.checksum, &replay);
  if (!journal.ok()) return journal.status();
  journal_ = std::make_unique<UpdateJournal>(std::move(journal).value());
  // Re-apply journaled mutations in order — the crash-recovery path. Each
  // replayed entry ticks the same update counters a live apply would, plus
  // update.journal_replayed, so a restart is observable.
  for (const DeltaEntry& entry : replay) {
    UpdateResult result;
    Status status = engine_->Apply(entry.add, entry.u, entry.v, &result);
    if (!status.ok()) {
      return Status::Corruption(
          "journal replay failed at " + std::string(entry.add ? "ADDEDGE "
                                                              : "DELEDGE ") +
          std::to_string(entry.u) + " " + std::to_string(entry.v) + ": " +
          status.message());
    }
    stats_.updates.fetch_add(1, std::memory_order_relaxed);
    ObsIncrement(kObsUpdatesApplied);
    ObsIncrement(entry.add ? kObsUpdatesAdded : kObsUpdatesDeleted);
    ObsAdd(kObsUpdateOccAdded, result.occ_added);
    ObsAdd(kObsUpdateOccRemoved, result.occ_removed);
    ObsAdd(kObsUpdateResubgraphs, result.resubgraphs);
    ObsIncrement(kObsUpdateJournalReplayed);
  }
  if (!replay.empty()) {
    const Status status = UsePredictor(predictor_name_);
    if (!status.ok()) return status;
  }
  return Status::OK();
}

StatusOr<std::vector<std::string>> SnapshotService::Predict(
    const Request& request) {
  if (request.protein >= snapshot_.graph.num_vertices()) {
    return Status::InvalidArgument("protein out of range");
  }
  return PredictionOutputLines(context_, snapshot_.ontology, *predictor_,
                               request.protein, request.top_k);
}

StatusOr<std::vector<std::string>> SnapshotService::Motifs(
    const Request& request) {
  if (request.protein >= snapshot_.graph.num_vertices()) {
    return Status::InvalidArgument("protein out of range");
  }
  std::vector<std::string> lines;
  char buffer[160];
  for (const SnapshotSite& site : snapshot_.sites[request.protein]) {
    const LabeledMotif& motif = snapshot_.motifs[site.motif];
    std::snprintf(buffer, sizeof buffer,
                  "motif %u vertex %u size %zu frequency %zu strength %.3f",
                  site.motif, site.vertex, motif.size(), motif.frequency,
                  motif.strength);
    lines.emplace_back(buffer);
  }
  return lines;
}

StatusOr<std::vector<std::string>> SnapshotService::TermInfo(
    const Request& request) {
  const TermId t = snapshot_.ontology.FindTerm(request.term);
  if (t == kInvalidTerm) {
    return Status::NotFound("unknown term \"" + request.term + "\"");
  }
  std::vector<std::string> lines;
  char buffer[256];
  lines.push_back("term " + snapshot_.ontology.TermName(t));
  lines.push_back("id " + std::to_string(t));
  lines.push_back("depth " + std::to_string(snapshot_.ontology.Depth(t)));
  std::snprintf(buffer, sizeof buffer, "weight %.6g",
                snapshot_.weights.Weight(t));
  lines.emplace_back(buffer);
  lines.push_back(std::string("informative ") +
                  (snapshot_.informative.IsInformative(t) ? "1" : "0"));
  lines.push_back(std::string("border ") +
                  (snapshot_.informative.IsBorderInformative(t) ? "1" : "0"));
  lines.push_back(std::string("label_candidate ") +
                  (snapshot_.informative.IsLabelCandidate(t) ? "1" : "0"));
  std::string parents = "parents ";
  bool first = true;
  for (TermId parent : snapshot_.ontology.Parents(t)) {
    if (!first) parents += ',';
    parents += snapshot_.ontology.TermName(parent);
    first = false;
  }
  if (first) parents += '-';
  lines.push_back(std::move(parents));
  return lines;
}

std::vector<std::string> SnapshotService::Health() const {
  char buffer[192];
  std::snprintf(buffer, sizeof buffer,
                "ready proteins=%zu terms=%zu motifs=%zu categories=%zu "
                "shard=%u/%u",
                snapshot_.graph.num_vertices(), snapshot_.ontology.num_terms(),
                snapshot_.motifs.size(), snapshot_.categories.size(),
                snapshot_.shard_id, snapshot_.num_shards);
  return {buffer};
}

void SnapshotService::OnConnection() {
  stats_.connections.fetch_add(1, std::memory_order_relaxed);
  ObsIncrement(kObsConnections);
}

std::vector<std::string> SnapshotService::Stats() const {
  std::vector<std::string> lines;
  // Snapshot identity first: after a rolling reload the router (and any
  // operator) verifies which model this backend serves by checksum, not by
  // trusting the path it was started with.
  char checksum[32];
  std::snprintf(checksum, sizeof checksum, "%016llx",
                static_cast<unsigned long long>(snapshot_.checksum));
  lines.push_back("snapshot_path " + (snapshot_.source_path.empty()
                                          ? std::string("-")
                                          : snapshot_.source_path));
  lines.push_back(std::string("snapshot_checksum ") + checksum);
  lines.push_back("shard " + std::to_string(snapshot_.shard_id) + "/" +
                  std::to_string(snapshot_.num_shards));
  // The active backend, so A/B deployments (different --predictor per router
  // slot) are observable from outside.
  lines.push_back("predictor " + predictor_name_);
  lines.push_back(
      "requests " +
      std::to_string(stats_.requests.load(std::memory_order_relaxed)));
  lines.push_back(
      "errors " + std::to_string(stats_.errors.load(std::memory_order_relaxed)));
  lines.push_back(
      "cache_hits " +
      std::to_string(stats_.cache_hits.load(std::memory_order_relaxed)));
  lines.push_back(
      "cache_misses " +
      std::to_string(stats_.cache_misses.load(std::memory_order_relaxed)));
  lines.push_back("cache_entries " + std::to_string(cache_.size()));
  lines.push_back("cache_capacity " + std::to_string(cache_.capacity()));
  lines.push_back(
      "connections " +
      std::to_string(stats_.connections.load(std::memory_order_relaxed)));
  lines.push_back(
      "updates " +
      std::to_string(stats_.updates.load(std::memory_order_relaxed)));
  lines.push_back("threads " + std::to_string(ThreadCount()));
  // Monotonic-clock fields so external scrapers can turn counter deltas into
  // rates: uptime_s is seconds since this service was constructed and
  // start_time the construction instant on the same monotonic scale.
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "uptime_s %.3f",
                std::chrono::duration<double>(Clock::now() - start_).count());
  lines.emplace_back(buffer);
  std::snprintf(buffer, sizeof buffer, "start_time %.3f",
                std::chrono::duration<double>(start_.time_since_epoch()).count());
  lines.emplace_back(buffer);
  lines.push_back(std::string(kObsPeakRssGauge) + " " +
                  std::to_string(ObsProcessPeakRssKb()));
  return lines;
}

std::vector<std::string> SnapshotService::Metrics() {
  std::lock_guard<std::mutex> lock(metrics_mu_);
  const Clock::time_point now = Clock::now();
  const double uptime_s = std::chrono::duration<double>(now - start_).count();
  const double start_time_s =
      std::chrono::duration<double>(start_.time_since_epoch()).count();
  const uint64_t now_ms = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(now - start_)
          .count());
  ObsSink* sink = GetObsSink();
  std::vector<PromFamily> families = CollectPromFamilies(
      sink, sink != nullptr ? &windows_ : nullptr, now_ms, uptime_s,
      start_time_s);
  // Prometheus-style info family: constant 1 with the active backend as a
  // label, so scrapes (and the router's relabeled re-export) can tell which
  // predictor each process serves.
  PromFamily info;
  info.name = "lamo_serve_predictor_info";
  info.type = "gauge";
  info.samples.push_back("lamo_serve_predictor_info{predictor=\"" +
                         predictor_name_ + "\"} 1");
  families.push_back(std::move(info));
  return RenderPromLines(families);
}

Status RunStreamServer(LineService* service, std::istream& in,
                       std::ostream& out) {
  std::string line;
  while (std::getline(in, line)) out << service->Handle(line);
  out.flush();
  return Status::OK();
}

namespace {

/// ---- TCP plumbing ---------------------------------------------------------

/// Signal handlers write one byte here (async-signal-safe) to wake the
/// accept loop's poll(). The byte identifies the signal class: 'S' asks for
/// shutdown (SIGINT/SIGTERM), 'H' asks for the on_sighup callback (SIGHUP,
/// installed only when the callback is set).
std::atomic<int> g_shutdown_pipe_wr{-1};

void WriteSignalByte(char byte) {
  const int fd = g_shutdown_pipe_wr.load(std::memory_order_relaxed);
  if (fd >= 0) {
    // poll() only needs readability; a full pipe already guarantees that.
    [[maybe_unused]] ssize_t ignored = write(fd, &byte, 1);
  }
}

void OnShutdownSignal(int) { WriteSignalByte('S'); }
void OnHupSignal(int) { WriteSignalByte('H'); }

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Reads newline-terminated requests from one client socket and answers
/// each on this thread, in order. Returns on EOF, error, socket shutdown, an
/// overload guard firing, or a stop request between lines.
///
/// The read side is poll()-driven so two deadlines can be enforced without
/// extra threads: a connection holding an unfinished request line longer
/// than the request budget (slowloris) gets `ERR DeadlineExceeded`, and a
/// connection with no partial line and no traffic past the idle budget is
/// reaped silently — including half-closed sockets whose clients called
/// shutdown(SHUT_WR) and then hung around.
void ConnectionLoop(int fd, LineService& service, const ServeOptions& options,
                    const std::atomic<bool>& stopping) {
  std::string buffer;
  char chunk[4096];
  Clock::time_point line_start = Clock::now();  // first byte of current line
  Clock::time_point last_activity = line_start;
  while (!stopping.load(std::memory_order_acquire)) {
    size_t newline;
    while ((newline = buffer.find('\n')) == std::string::npos &&
           buffer.size() <= options.max_line_bytes) {
      // A partial line runs against the line deadline, an empty buffer
      // against the idle one.
      const uint64_t budget_ms =
          buffer.empty() ? options.idle_timeout_ms : options.request_timeout_ms;
      int wait_ms = -1;
      if (budget_ms > 0) {
        const auto deadline = (buffer.empty() ? last_activity : line_start) +
                              std::chrono::milliseconds(budget_ms);
        wait_ms = static_cast<int>(std::max<int64_t>(
            0, std::chrono::duration_cast<std::chrono::milliseconds>(
                   deadline - Clock::now())
                   .count()));
      }
      pollfd pfd{fd, POLLIN, 0};
      const int ready = poll(&pfd, 1, wait_ms);
      if (ready < 0) {
        if (errno == EINTR) continue;
        return;
      }
      if (ready == 0) {  // deadline expired
        if (!buffer.empty()) {
          ObsIncrement(kObsTimeouts);
          SendAll(fd, FormatErrorResponse(Status::DeadlineExceeded(
                          "request line not completed within deadline")));
        } else {
          ObsIncrement(kObsIdleReaped);
        }
        return;
      }
      const ssize_t n = recv(fd, chunk, sizeof chunk, 0);
      if (n <= 0) return;  // EOF, error, or shutdown()
      if (buffer.empty()) line_start = Clock::now();
      last_activity = Clock::now();
      buffer.append(chunk, static_cast<size_t>(n));
    }
    // The limit applies to the current line whether or not its newline has
    // arrived: min(npos, size) is the unfinished line's length.
    if (std::min(newline, buffer.size()) > options.max_line_bytes) {
      ObsIncrement(kObsOverlongLines);
      SendAll(fd, FormatErrorResponse(
                      Status::InvalidArgument("request line too long")));
      return;
    }
    const std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    if (!SendAll(fd, service.Handle(line))) return;
    line_start = last_activity = Clock::now();
  }
}

/// One live client connection: its socket, its reader thread, and a flag the
/// thread raises when it is finished and safe to join.
struct Conn {
  int fd = -1;
  std::atomic<bool> done{false};
  std::thread thread;
};

}  // namespace

Status RunTcpServer(LineService* service, const ServeOptions& options) {
  std::FILE* log = options.log != nullptr ? options.log : stdout;
  // Every descriptor here is close-on-exec: a router forks backends while
  // it serves, and a backend must not hold the router's listening socket,
  // self-pipes or client connections open.
  const int listen_fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd < 0) return Status::IoError("socket() failed");
  const int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    close(listen_fd);
    return Status::IoError("cannot bind 127.0.0.1:" +
                           std::to_string(options.port) + ": " +
                           std::strerror(errno));
  }
  socklen_t addr_len = sizeof addr;
  if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) !=
      0) {
    close(listen_fd);
    return Status::IoError("getsockname() failed");
  }
  const uint16_t bound_port = ntohs(addr.sin_port);
  if (listen(listen_fd, 64) != 0) {
    close(listen_fd);
    return Status::IoError("listen() failed");
  }

  int pipe_fds[2];
  if (pipe2(pipe_fds, O_CLOEXEC) != 0) {
    close(listen_fd);
    return Status::IoError("pipe() failed");
  }
  // Connection threads write one byte here when they finish, waking the
  // accept loop to reap them — and, when the server was at max_conns, to put
  // the listen socket back into the poll set.
  int conn_event_fds[2];
  if (pipe2(conn_event_fds, O_CLOEXEC) != 0) {
    close(listen_fd);
    close(pipe_fds[0]);
    close(pipe_fds[1]);
    return Status::IoError("pipe() failed");
  }
  g_shutdown_pipe_wr.store(pipe_fds[1], std::memory_order_relaxed);
  struct sigaction action{};
  action.sa_handler = OnShutdownSignal;
  sigemptyset(&action.sa_mask);
  struct sigaction old_int{}, old_term{}, old_hup{};
  sigaction(SIGINT, &action, &old_int);
  sigaction(SIGTERM, &action, &old_term);
  if (options.on_sighup) {
    struct sigaction hup_action{};
    hup_action.sa_handler = OnHupSignal;
    sigemptyset(&hup_action.sa_mask);
    sigaction(SIGHUP, &hup_action, &old_hup);
  }

  // glibc gives each new thread its own malloc arena (up to 8 per core), and
  // an arena keeps what is freed into it; capped at the thread count, memory
  // follows ThreadCount() rather than the number of busy connections.
  mallopt(M_ARENA_MAX,
          static_cast<int>(std::min<size_t>(ThreadCount(), INT_MAX)));

  std::fprintf(log, "%s: listening on 127.0.0.1:%u (pid %ld)\n", options.name,
               bound_port, static_cast<long>(getpid()));
  std::fflush(log);
  if (options.on_listening) options.on_listening(bound_port);

  std::atomic<bool> stopping{false};
  std::mutex conn_mu;
  std::vector<std::unique_ptr<Conn>> conns;  // guarded by conn_mu
  const int conn_event_wr = conn_event_fds[1];

  auto reap_finished = [&conns, &conn_mu] {
    std::vector<std::unique_ptr<Conn>> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mu);
      auto it = conns.begin();
      while (it != conns.end()) {
        if ((*it)->done.load(std::memory_order_acquire)) {
          finished.push_back(std::move(*it));
          it = conns.erase(it);
        } else {
          ++it;
        }
      }
    }
    // Join outside the lock; the threads have already signalled done.
    for (auto& conn : finished) conn->thread.join();
    return finished.size();
  };

  while (true) {
    size_t live;
    {
      std::lock_guard<std::mutex> lock(conn_mu);
      live = conns.size();
    }
    const bool at_capacity = options.max_conns > 0 && live >= options.max_conns;
    if (at_capacity) ObsIncrement(kObsBackpressureWaits);

    // At capacity the listen fd is parked: new clients wait in the kernel
    // backlog instead of costing a thread each, and the conn-event pipe
    // wakes us the moment a slot frees up.
    pollfd poll_fds[3];
    poll_fds[0] = {pipe_fds[0], POLLIN, 0};
    poll_fds[1] = {conn_event_fds[0], POLLIN, 0};
    poll_fds[2] = {listen_fd, POLLIN, 0};
    const nfds_t num_fds = at_capacity ? 2 : 3;
    const int ready = poll(poll_fds, num_fds, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (poll_fds[0].revents != 0) {
      // Drain the signal pipe and dispatch by byte: 'S' (SIGINT/SIGTERM)
      // starts the graceful shutdown, 'H' (SIGHUP) runs the reload callback
      // here on the accept-loop thread, outside signal context.
      char bytes[16];
      const ssize_t got = read(pipe_fds[0], bytes, sizeof bytes);
      bool shutdown_requested = false;
      for (ssize_t i = 0; i < got; ++i) {
        if (bytes[i] == 'S') shutdown_requested = true;
        if (bytes[i] == 'H' && options.on_sighup) options.on_sighup();
      }
      if (shutdown_requested) break;
    }
    if (poll_fds[1].revents != 0) {
      char drain[64];
      [[maybe_unused]] ssize_t ignored =
          read(conn_event_fds[0], drain, sizeof drain);
      reap_finished();
    }
    if (!at_capacity && (poll_fds[2].revents & POLLIN) != 0) {
      const int conn_fd =
          accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
      if (conn_fd < 0) continue;
      // Replies are written whole; without NODELAY a client that delays its
      // ACKs would see each reply held back by Nagle's algorithm.
      setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      service->OnConnection();
      auto conn = std::make_unique<Conn>();
      Conn* raw = conn.get();
      raw->fd = conn_fd;
      {
        std::lock_guard<std::mutex> lock(conn_mu);
        conns.push_back(std::move(conn));
      }
      raw->thread = std::thread([service, &options, &stopping, &conn_mu,
                                 conn_event_wr, raw] {
        ConnectionLoop(raw->fd, *service, options, stopping);
        // Before the close, so a client that reconnects on seeing EOF finds
        // this thread's obs state ready for reuse.
        ObsReleaseThreadState();
        // Close under the lock so the shutdown path never calls shutdown()
        // on an fd number that was already closed and reused.
        {
          std::lock_guard<std::mutex> lock(conn_mu);
          close(raw->fd);
          raw->fd = -1;
        }
        raw->done.store(true, std::memory_order_release);
        const char byte = 1;
        [[maybe_unused]] ssize_t ignored = write(conn_event_wr, &byte, 1);
      });
    }
  }

  // Graceful drain: stop accepting, unblock blocked readers, let in-flight
  // requests finish, then join everything before the caller flushes reports.
  stopping.store(true, std::memory_order_release);
  close(listen_fd);
  {
    std::lock_guard<std::mutex> lock(conn_mu);
    for (const auto& conn : conns) {
      if (conn->fd >= 0) shutdown(conn->fd, SHUT_RDWR);
    }
  }
  std::vector<std::unique_ptr<Conn>> draining;
  {
    // Move out under the lock, join outside it: exiting threads still need
    // conn_mu to close their own fd, so joining while holding it would
    // deadlock.
    std::lock_guard<std::mutex> lock(conn_mu);
    draining = std::move(conns);
    conns.clear();
  }
  for (const auto& conn : draining) {
    if (conn->thread.joinable()) conn->thread.join();
  }

  sigaction(SIGINT, &old_int, nullptr);
  sigaction(SIGTERM, &old_term, nullptr);
  if (options.on_sighup) sigaction(SIGHUP, &old_hup, nullptr);
  g_shutdown_pipe_wr.store(-1, std::memory_order_relaxed);
  close(pipe_fds[0]);
  close(pipe_fds[1]);
  close(conn_event_fds[0]);
  close(conn_event_fds[1]);

  std::fprintf(
      log, "%s: drained, served %llu requests over %llu connections\n",
      options.name,
      static_cast<unsigned long long>(service->TotalRequests()),
      static_cast<unsigned long long>(service->TotalConnections()));
  std::fflush(log);
  return Status::OK();
}

}  // namespace lamo
