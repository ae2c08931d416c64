#include "router/cluster.h"

#include <signal.h>
#include <sys/wait.h>

#include <chrono>
#include <optional>
#include <thread>

#include "serve/snapshot.h"
#include "util/fault.h"

namespace lamo {
namespace {

using Clock = std::chrono::steady_clock;

/// Armed by the crash matrix: kills the router between backend launches so
/// the harness can assert backends die with it (PR_SET_PDEATHSIG) instead of
/// leaking.
const size_t kFaultSpawn = FaultPointId("router.spawn");

void SleepMs(uint64_t ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

}  // namespace

Cluster::Cluster(ClusterOptions options) : options_(std::move(options)) {
  base_snapshot_ = options_.snapshot;
  backends_.reserve(options_.num_backends);
  for (size_t i = 0; i < options_.num_backends; ++i) {
    backends_.push_back(std::make_unique<Backend>(i));
  }
}

Cluster::~Cluster() { Stop(); }

std::string Cluster::SnapshotPathFor(const std::string& base,
                                     size_t index) const {
  if (!options_.sharded || options_.num_backends == 1) return base;
  return ShardSnapshotPath(base, static_cast<uint32_t>(index),
                           static_cast<uint32_t>(options_.num_backends));
}

std::string Cluster::base_snapshot() const {
  std::lock_guard<std::mutex> lock(base_mu_);
  return base_snapshot_;
}

BackendConfig Cluster::MakeBackendConfig(
    size_t index, const std::string& snapshot_path) const {
  BackendConfig config;
  config.binary = options_.binary;
  config.snapshot = snapshot_path;
  config.spawn_timeout_ms = options_.spawn_timeout_ms;
  config.log = options_.log;
  if (!options_.backend_access_log.empty()) {
    config.extra_args.push_back("--access-log");
    config.extra_args.push_back(options_.backend_access_log + "." +
                                std::to_string(index));
    config.extra_args.push_back("--access-sample");
    config.extra_args.push_back(std::to_string(options_.backend_access_sample));
    config.extra_args.push_back("--slow-ms");
    config.extra_args.push_back(std::to_string(options_.backend_slow_ms));
  }
  if (!options_.predictors.empty()) {
    config.extra_args.push_back("--predictor");
    config.extra_args.push_back(
        options_.predictors[index % options_.predictors.size()]);
  }
  return config;
}

Status Cluster::LaunchBackend(size_t index, const BackendConfig& config) {
  if (FaultHit(kFaultSpawn) == FaultAction::kError) {
    return Status::IoError("injected fault: router.spawn");
  }
  return backends_[index]->Launch(config);
}

Status Cluster::Start() {
  // Every backend is launched before any is awaited, so their snapshot
  // loads run side by side. Both stay on this thread: a backend dies with
  // the thread that forked it (PR_SET_PDEATHSIG).
  const std::string base = base_snapshot();
  std::vector<BackendConfig> configs;
  Status status = Status::OK();
  for (size_t i = 0; i < backends_.size() && status.ok(); ++i) {
    configs.push_back(MakeBackendConfig(i, SnapshotPathFor(base, i)));
    status = LaunchBackend(i, configs[i]);
  }
  for (size_t i = 0; i < backends_.size() && status.ok(); ++i) {
    status = backends_[i]->Await(configs[i]);
  }
  if (!status.ok()) {
    Stop();
    return status;
  }
  running_.store(true, std::memory_order_release);
  monitor_ = std::thread([this] { MonitorLoop(); });
  return Status::OK();
}

void Cluster::Stop() {
  {
    std::lock_guard<std::mutex> lock(swap_mu_);
    running_.store(false, std::memory_order_release);
  }
  swap_cv_.notify_all();  // a waiting Reload gives up
  if (monitor_.joinable()) monitor_.join();
  for (auto& backend : backends_) {
    backend->Kill(SIGTERM);
  }
  for (auto& backend : backends_) {
    const pid_t p = backend->pid();
    if (p > 0) {
      // Graceful drain first; SIGKILL after a short grace so Stop cannot
      // hang on a wedged child.
      const Clock::time_point deadline =
          Clock::now() + std::chrono::seconds(5);
      while (backend->pid() > 0 && !backend->Reap() &&
             Clock::now() < deadline) {
        SleepMs(10);
      }
      if (backend->pid() > 0) {
        backend->Kill(SIGKILL);
        waitpid(backend->pid(), nullptr, 0);
      }
    }
    backend->set_state(BackendState::kDown);
  }
}

void Cluster::MonitorLoop() {
  while (running_.load(std::memory_order_acquire)) {
    std::optional<std::string> swap_base;
    {
      std::lock_guard<std::mutex> lock(swap_mu_);
      swap_base.swap(swap_base_);
    }
    if (swap_base.has_value()) {
      const Status status = SwapBackends(*swap_base);
      std::lock_guard<std::mutex> lock(swap_mu_);
      swap_result_ = status;
      swap_cv_.notify_all();
    }
    for (auto& backend : backends_) {
      backend->DrainOutput();
      // Reloads swap backends on this thread too, so supervision never
      // races a swap. A dead kUp backend is respawned on the snapshot it
      // was serving (which may be mid-reload newer than other backends');
      // a respawn failure leaves it kDown for the next tick.
      if (backend->state() == BackendState::kDraining) continue;
      const bool died = backend->Reap();
      if (died || (backend->state() == BackendState::kDown &&
                   backend->pid() <= 0)) {
        if (options_.log != nullptr) {
          std::fprintf(options_.log,
                       "lamo router: backend %zu died, respawning\n",
                       backend->index());
          std::fflush(options_.log);
        }
        // Respawn on the exact snapshot the dead incarnation served (not
        // recomputed from the base, which may already point at a newer
        // model mid-reload).
        std::string snapshot = backend->snapshot_path();
        if (snapshot.empty()) {
          snapshot = SnapshotPathFor(base_snapshot(), backend->index());
        }
        const Status status =
            backend->Spawn(MakeBackendConfig(backend->index(), snapshot));
        (void)status;  // kDown until a later tick succeeds
      }
    }
    SleepMs(options_.monitor_interval_ms);
  }
}

Status Cluster::Forward(size_t index, const std::string& line,
                        std::string* response, bool* retried) {
  *retried = false;
  Backend& backend = *backends_[index];
  const Clock::time_point deadline = RetryDeadline();
  Status last = Status::Unavailable("backend " + std::to_string(index) +
                                    " not attempted");
  bool first = true;
  while (true) {
    if (!first) *retried = true;
    first = false;
    if (backend.state() == BackendState::kUp) {
      last = backend.SendRequest(line, deadline, response);
      if (last.ok()) return last;
      // Transport failure: the process may be dead (monitor will respawn)
      // or the connection stale (redial next attempt).
    } else {
      last = Status::Unavailable("backend " + std::to_string(index) + " " +
                                 BackendStateName(backend.state()));
    }
    if (Clock::now() >= deadline) return last;
    SleepMs(10);
  }
}

Status Cluster::ProbeHealth(size_t index) {
  std::string response;
  bool retried = false;
  const Status status = Forward(index, "HEALTH", &response, &retried);
  if (!status.ok()) return status;
  if (response.rfind("OK ", 0) != 0) {
    return Status::Unavailable("backend " + std::to_string(index) +
                               ": HEALTH answered " + response);
  }
  return Status::OK();
}

Status Cluster::Reload(const std::string& new_base) {
  std::lock_guard<std::mutex> lock(reload_mu_);

  // Pack-validate every file the swap will load before touching any
  // backend: a bad snapshot must leave the cluster exactly as it was.
  for (size_t i = 0; i < backends_.size(); ++i) {
    const std::string path = SnapshotPathFor(new_base, i);
    auto snapshot = ReadSnapshot(path);
    if (!snapshot.ok()) {
      return Status::InvalidArgument("reload rejected: " + path + ": " +
                                     snapshot.status().message());
    }
    if (options_.sharded && options_.num_backends > 1 &&
        (snapshot->num_shards != options_.num_backends ||
         snapshot->shard_id != i)) {
      return Status::InvalidArgument(
          "reload rejected: " + path + " is shard " +
          std::to_string(snapshot->shard_id) + "/" +
          std::to_string(snapshot->num_shards) + ", want " +
          std::to_string(i) + "/" + std::to_string(backends_.size()));
    }
  }

  // A backend dies with the thread that forked it (PR_SET_PDEATHSIG), and
  // the caller may be a connection thread that ends with its connection, so
  // the swap runs on the monitor thread, which lives as long as the cluster.
  std::unique_lock<std::mutex> swap_lock(swap_mu_);
  swap_base_ = new_base;
  swap_result_.reset();
  swap_cv_.wait(swap_lock, [this] {
    return swap_result_.has_value() || !running_.load();
  });
  if (swap_result_.has_value()) return *swap_result_;
  swap_base_.reset();  // never picked up: the cluster is not running
  return Status::Unavailable("reload needs a running cluster");
}

Status Cluster::SwapBackends(const std::string& new_base) {
  for (size_t i = 0; i < backends_.size(); ++i) {
    Backend& backend = *backends_[i];
    // Drain: stop placing new requests (Forward treats kDraining as
    // not-up), wait for in-flight ones to finish.
    backend.set_state(BackendState::kDraining);
    const Clock::time_point drain_deadline =
        Clock::now() + std::chrono::seconds(10);
    while (backend.inflight() > 0 && Clock::now() < drain_deadline) {
      SleepMs(5);
    }
    backend.Kill(SIGTERM);
    const Clock::time_point reap_deadline =
        Clock::now() + std::chrono::seconds(10);
    while (backend.pid() > 0 && !backend.Reap() &&
           Clock::now() < reap_deadline) {
      SleepMs(10);
    }
    if (backend.pid() > 0) {
      backend.Kill(SIGKILL);
      while (backend.pid() > 0 && !backend.Reap()) SleepMs(10);
    }

    const BackendConfig config =
        MakeBackendConfig(i, SnapshotPathFor(new_base, i));
    Status spawned = LaunchBackend(i, config);
    if (spawned.ok()) spawned = backend.Await(config);
    if (!spawned.ok()) return spawned;
    const Status healthy = ProbeHealth(i);
    if (!healthy.ok()) return healthy;
    if (options_.log != nullptr) {
      std::fprintf(options_.log,
                   "lamo router: backend %zu reloaded onto %s\n", i,
                   SnapshotPathFor(new_base, i).c_str());
      std::fflush(options_.log);
    }
  }

  {
    std::lock_guard<std::mutex> base_lock(base_mu_);
    base_snapshot_ = new_base;
  }
  reloads_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

size_t Cluster::num_up() const {
  size_t up = 0;
  for (const auto& backend : backends_) {
    if (backend->state() == BackendState::kUp) ++up;
  }
  return up;
}

}  // namespace lamo
