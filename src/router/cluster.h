#ifndef LAMO_ROUTER_CLUSTER_H_
#define LAMO_ROUTER_CLUSTER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "router/backend.h"
#include "util/status.h"

namespace lamo {

/// ---- Backend cluster -------------------------------------------------------
///
/// Owns the router's N backend processes: spawns them at Start, watches them
/// from a monitor thread (reap + respawn a dead backend, drain its stdout
/// pipe), forwards requests with bounded retries, and performs the rolling
/// snapshot reload that swaps every backend one at a time without failing a
/// request.

struct ClusterOptions {
  std::string binary;    // path to the lamo executable (exec'd for backends)
  std::string snapshot;  // base snapshot path
  bool sharded = false;  // backend i serves <snapshot>.shard<i>of<N>
  size_t num_backends = 1;
  /// Forward() keeps retrying transport failures and down backends until
  /// this budget expires; a single backend read waits no longer either.
  uint64_t retry_deadline_ms = 10'000;
  /// Monitor thread poll cadence: death detection and respawn latency.
  uint64_t monitor_interval_ms = 50;
  uint64_t spawn_timeout_ms = 20'000;
  std::FILE* log = nullptr;
  /// When non-empty, backend i is spawned with
  /// `--access-log <backend_access_log>.<i>` (one JSONL file per backend so
  /// concurrent processes never interleave lines) plus the sampling knobs
  /// below, mirroring the router's own --access-log flags.
  std::string backend_access_log;
  uint64_t backend_access_sample = 1;
  uint64_t backend_slow_ms = 0;
  /// When non-empty, backend i is spawned with
  /// `--predictor predictors[i % predictors.size()]`. A single entry pins
  /// every backend to one predictor; several entries interleave backends
  /// across predictors for A/B serving (e.g. {"lms", "gds"} alternates).
  /// Names are validated by the CLI against the predictor registry before
  /// the cluster is built.
  std::vector<std::string> predictors;
};

class Cluster {
 public:
  explicit Cluster(ClusterOptions options);
  ~Cluster();

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Launches every backend, then awaits each one's listening banner, so
  /// their snapshot loads overlap; then starts the monitor thread. Fails
  /// fast if any backend cannot start (bad snapshot path, exec failure).
  Status Start();

  /// Kills every backend and joins the monitor thread. Idempotent.
  void Stop();

  /// The snapshot file backend `index` serves under `base`: the shard file
  /// in sharded mode, `base` itself in replicated mode.
  std::string SnapshotPathFor(const std::string& base, size_t index) const;

  /// Forwards one request line to backend `index`, retrying transport
  /// failures — and waiting out kDown/kDraining windows — until the retry
  /// deadline. `*retried` is set true iff at least one retry happened
  /// (feeds router.retries).
  Status Forward(size_t index, const std::string& line, std::string* response,
                 bool* retried);

  /// Rolling reload: pack-validates `new_base` (and every shard file in
  /// sharded mode), then waits while the monitor thread drains each backend
  /// in turn (state kDraining, wait for inflight == 0), terminates it,
  /// spawns the replacement on the new snapshot and awaits a HEALTH answer.
  /// Requests keep flowing: replicated traffic fails over to other
  /// backends, sharded traffic for the draining shard waits inside
  /// Forward's retry loop. On success the cluster's base path becomes
  /// `new_base`.
  Status Reload(const std::string& new_base);

  size_t size() const { return backends_.size(); }
  Backend& backend(size_t index) { return *backends_[index]; }
  const Backend& backend(size_t index) const { return *backends_[index]; }

  /// Backends currently kUp.
  size_t num_up() const;
  /// The deadline for one forwarded request: now plus the retry budget.
  std::chrono::steady_clock::time_point RetryDeadline() const {
    return std::chrono::steady_clock::now() +
           std::chrono::milliseconds(options_.retry_deadline_ms);
  }
  /// Completed rolling reloads (router.reloads).
  uint64_t reloads() const { return reloads_.load(std::memory_order_relaxed); }
  /// Current base snapshot path (updated by a successful Reload).
  std::string base_snapshot() const;

 private:
  void MonitorLoop();
  Status SwapBackends(const std::string& new_base);
  /// Hits the `router.spawn` fault point, then launches backend `index`.
  Status LaunchBackend(size_t index, const BackendConfig& config);
  Status ProbeHealth(size_t index);
  /// The spawn config for backend `index` serving `snapshot_path` — the one
  /// place the access-log extra args are composed, so initial spawns,
  /// monitor respawns and rolling reloads all agree.
  BackendConfig MakeBackendConfig(size_t index,
                                  const std::string& snapshot_path) const;

  ClusterOptions options_;
  std::vector<std::unique_ptr<Backend>> backends_;
  std::thread monitor_;
  std::atomic<bool> running_{false};
  std::atomic<uint64_t> reloads_{0};
  /// Held across a rolling reload so concurrent RELOAD/SIGHUP serialize.
  std::mutex reload_mu_;
  std::mutex swap_mu_;  // hands a reload to the monitor and its result back
  std::condition_variable swap_cv_;
  std::optional<std::string> swap_base_;  // guarded by swap_mu_
  std::optional<Status> swap_result_;     // guarded by swap_mu_
  mutable std::mutex base_mu_;  // guards base_snapshot_
  std::string base_snapshot_;
};

}  // namespace lamo

#endif  // LAMO_ROUTER_CLUSTER_H_
