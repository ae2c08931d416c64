#ifndef LAMO_SERVE_SERVER_H_
#define LAMO_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <istream>
#include <memory>
#include <mutex>
#include <ostream>
#include <shared_mutex>
#include <string>

#include "obs/window.h"
#include "predict/predictor.h"
#include "serve/access_log.h"
#include "serve/cache.h"
#include "serve/journal.h"
#include "serve/request.h"
#include "serve/snapshot.h"
#include "serve/update.h"
#include "util/status.h"

namespace lamo {

/// Default response-cache capacity (entries) for `lamo serve`.
inline constexpr size_t kDefaultServeCacheCapacity = 4096;

/// Live server counters, exposed by the STATS request. Kept separately from
/// the obs layer so STATS works without a `--report` sink installed; the
/// handlers additionally feed the `serve.*` obs counters and histograms when
/// a sink is present.
struct ServeStats {
  std::atomic<uint64_t> requests{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> connections{0};
  std::atomic<uint64_t> updates{0};
};

/// What the stream/TCP server loops need from a request handler: one
/// thread-safe line-in/response-out method plus the counters the drain
/// banner prints. `lamo serve` implements it over one snapshot
/// (SnapshotService); `lamo router` implements it over a backend cluster
/// (RouterService) — both share the connection and overload-protection
/// machinery below, which calls Handle on the thread that read the line.
class LineService {
 public:
  virtual ~LineService() = default;

  /// Processes one request line and returns the full wire response
  /// (`OK <n>` + payload, or `ERR ...`). Must be thread-safe.
  virtual std::string Handle(const std::string& line) = 0;

  /// Called once per accepted TCP connection, before its reader starts.
  virtual void OnConnection() {}

  /// Lifetime totals for the drain banner.
  virtual uint64_t TotalRequests() const = 0;
  virtual uint64_t TotalConnections() const = 0;
};

/// Answers protocol requests against one loaded snapshot. Construction wires
/// the prediction context and the default (labeled-motif) predictor from the
/// packed artifacts — no text parsing, no weight or closure recomputation;
/// UsePredictor swaps in any registered backend before serving starts.
/// Handle() is thread-safe: queries hold the snapshot lock shared (the
/// snapshot is immutable to them, the cache is internally locked, the stats
/// are atomics), while the mutation verbs (ADDEDGE / DELEDGE) and
/// PREDICT_EDGE serialize behind it exclusively — updates patch the
/// snapshot in place and both paths share the engine's single-threaded
/// labeling machinery.
class SnapshotService : public LineService {
 public:
  /// Takes ownership of the snapshot. `cache_capacity` 0 disables response
  /// memoization (every request recomputes; responses are unchanged).
  explicit SnapshotService(Snapshot snapshot,
                           size_t cache_capacity = kDefaultServeCacheCapacity);

  /// Replaces the active backend with the one registered under `name`
  /// ("lms" | "gds" | "role"). gds/role draw their precomputed matrices from
  /// the snapshot's predictor section, so a version-2 snapshot can only
  /// serve lms — selecting another backend returns InvalidArgument advising
  /// a repack. Call before serving starts: Handle() is not synchronized
  /// against a concurrent swap.
  Status UsePredictor(const std::string& name);

  SnapshotService(const SnapshotService&) = delete;
  SnapshotService& operator=(const SnapshotService&) = delete;

  /// Processes one request line and returns the full wire response
  /// (`OK <n>` + payload, or `ERR ...`), updating stats, the cache, and the
  /// serve.* observability metrics.
  std::string Handle(const std::string& line) override;

  void OnConnection() override;
  uint64_t TotalRequests() const override {
    return stats_.requests.load(std::memory_order_relaxed);
  }
  uint64_t TotalConnections() const override {
    return stats_.connections.load(std::memory_order_relaxed);
  }

  const Snapshot& snapshot() const { return snapshot_; }
  /// Registry key of the active backend ("lms" until UsePredictor succeeds).
  const std::string& predictor_name() const { return predictor_name_; }
  ServeStats& stats() { return stats_; }
  const ServeStats& stats() const { return stats_; }
  size_t cache_entries() const { return cache_.size(); }

  /// Attaches a sampled JSONL access log (borrowed; caller keeps it alive
  /// past the last Handle call). Logging never changes response bytes.
  void set_access_log(AccessLog* log) { access_log_ = log; }

  /// Attaches the write-ahead delta journal at `path` (created if absent;
  /// Corruption if an existing journal binds a different snapshot) and
  /// replays any entries it already holds — the crash-recovery path. Call
  /// before serving starts. Without a journal, updates are accepted but
  /// ephemeral: a restart reloads the untouched base snapshot.
  Status AttachJournal(const std::string& path);

 private:
  StatusOr<std::vector<std::string>> Payload(const Request& request);
  StatusOr<std::vector<std::string>> Predict(const Request& request);
  StatusOr<std::vector<std::string>> Motifs(const Request& request);
  StatusOr<std::vector<std::string>> TermInfo(const Request& request);
  std::vector<std::string> Health() const;
  std::vector<std::string> Stats() const;
  std::vector<std::string> Metrics();
  /// ADDEDGE / DELEDGE: journal, apply, refresh predictor state, invalidate
  /// affected cache entries. Caller holds snapshot_mu_ exclusively.
  StatusOr<std::vector<std::string>> ApplyEdge(const Request& request);
  /// PREDICT_EDGE. Caller holds snapshot_mu_ exclusively (the scoring
  /// shares the engine's scratch overlay and memoizing similarity).
  StatusOr<std::vector<std::string>> PredictEdge(const Request& request);
  /// Drops the cache entries an applied update can have changed.
  size_t InvalidateCache(const UpdateResult& result);

  Snapshot snapshot_;
  PredictionContext context_;
  std::unique_ptr<FunctionPredictor> predictor_;
  std::string predictor_name_ = "lms";
  ResponseCache cache_;
  ServeStats stats_;
  AccessLog* access_log_ = nullptr;
  /// Readers (queries) shared, writers (ADDEDGE/DELEDGE/PREDICT_EDGE)
  /// exclusive. Cache operations happen under the same lock so an update's
  /// invalidation can never interleave with a stale Put.
  std::shared_mutex snapshot_mu_;
  std::unique_ptr<UpdateEngine> engine_;   // guarded by snapshot_mu_
  std::unique_ptr<UpdateJournal> journal_;  // guarded by snapshot_mu_
  const std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
  std::mutex metrics_mu_;
  MetricWindows windows_;  // guarded by metrics_mu_
};

/// One-shot stream mode (`lamo serve --stdin`): reads request lines from
/// `in` until EOF and answers each on the calling thread, writing the
/// responses to `out` in request order. Output is deterministic for any
/// thread count. Used by tests and the determinism guard.
Status RunStreamServer(LineService* service, std::istream& in,
                       std::ostream& out);

/// Overload-protection knobs for the TCP server. Every limit has a "0
/// disables" escape hatch so tests can exercise one guard at a time, but the
/// CLI defaults are all armed: an abusive client (slowloris writer, oversized
/// request line, half-closed socket, connection flood) costs a bounded amount
/// of memory and one thread whose lifetime ends when a guard fires.
struct ServeOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port.
  uint16_t port = 0;
  /// Slowloris guard: a request line still unfinished this long after its
  /// first byte gets `ERR DeadlineExceeded ...` and a close. Handling a
  /// complete line is not bounded here. 0 disables.
  uint64_t request_timeout_ms = 10'000;
  /// Idle reaper: a connection with no buffered partial line and no traffic
  /// for this long is closed silently. 0 disables.
  uint64_t idle_timeout_ms = 60'000;
  /// Accept-backpressure threshold: at this many live connections the listen
  /// socket is removed from the poll set, so further clients queue in the
  /// kernel backlog instead of spawning threads. 0 means unlimited.
  size_t max_conns = 64;
  /// A request line longer than this, finished or not, gets
  /// `ERR InvalidArgument request line too long` and a close. Bounds
  /// per-connection buffer memory.
  size_t max_line_bytes = 64 * 1024;
  /// Invoked once with the bound port after listen() succeeds, before the
  /// accept loop starts. Lets in-process tests discover an ephemeral port
  /// without parsing the log. May be empty.
  std::function<void(uint16_t)> on_listening;
  /// When set, SIGHUP is caught for the server's lifetime and this callback
  /// runs on the accept-loop thread (not in signal context). The router uses
  /// it to trigger a rolling snapshot reload; keep the callback quick — hand
  /// long work to another thread.
  std::function<void()> on_sighup;
  /// Program name for the listening/drained log lines ("lamo serve",
  /// "lamo router").
  const char* name = "lamo serve";
  /// Human-readable progress lines (listening/drained); never the wire
  /// protocol. Defaults to stdout in the CLI.
  std::FILE* log = nullptr;
};

/// Long-lived TCP mode: binds 127.0.0.1:`options.port`, prints
/// `listening on 127.0.0.1:<port>` to `options.log`, and serves concurrent
/// connections — one thread per connection, which reads each request line
/// and answers it itself — until SIGINT or SIGTERM. Accepted sockets set
/// TCP_NODELAY, and malloc arenas are capped at ThreadCount() for the
/// process (M_ARENA_MAX). Overload behavior (line deadline, idle reaping, line-length
/// guard, accept backpressure) follows `options`; see ServeOptions. Shutdown
/// is graceful: stop accepting, unblock readers, finish in-flight requests,
/// join everything, then return OK so the CLI can flush --report/--trace.
Status RunTcpServer(LineService* service, const ServeOptions& options);

}  // namespace lamo

#endif  // LAMO_SERVE_SERVER_H_
