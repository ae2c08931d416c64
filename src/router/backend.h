#ifndef LAMO_ROUTER_BACKEND_H_
#define LAMO_ROUTER_BACKEND_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "util/status.h"

namespace lamo {

/// ---- Backend process supervision -------------------------------------------
///
/// One Backend wraps one child `lamo serve` process: fork/exec with an
/// ephemeral port, parse the `listening on 127.0.0.1:<port>` banner from the
/// child's stdout pipe, then keep the pipe open (closing it would SIGPIPE
/// the child on its next log line) and drain it from the monitor thread. The
/// router holds N of these plus a pool of persistent TCP connections per
/// backend; a dead connection is dropped and redialed, a dead process is
/// reaped and respawned by the cluster's monitor.

/// How a backend participates in routing. kDraining is the rolling-reload
/// window: no new requests are placed, in-flight ones finish, then the
/// process is swapped.
enum class BackendState : uint8_t { kDown, kUp, kDraining };

const char* BackendStateName(BackendState state);

/// Everything needed to (re)spawn one backend process.
struct BackendConfig {
  std::string binary;          // path to the lamo executable
  std::string snapshot;        // snapshot file this backend serves
  uint64_t spawn_timeout_ms = 20'000;  // banner-parse budget
  std::FILE* log = nullptr;    // nullptr silences supervision chatter
  /// Extra argv entries appended to `serve --snapshot <path> --port 0`
  /// (e.g. `--access-log <path>`); identical across respawns.
  std::vector<std::string> extra_args;
};

/// One pooled TCP connection to a backend, with its read buffer (leftover
/// bytes between requests stay with the connection) and the backend
/// generation it was dialed against — a respawn bumps the generation so
/// stale sockets are discarded instead of returned to the pool.
struct BackendConn {
  int fd = -1;
  std::string buffer;
  uint64_t generation = 0;
};

class Backend {
 public:
  explicit Backend(size_t index) : index_(index) {}
  ~Backend();

  Backend(const Backend&) = delete;
  Backend& operator=(const Backend&) = delete;

  /// Launch, then Await.
  Status Spawn(const BackendConfig& config);

  /// Forks and execs `lamo serve --snapshot <config.snapshot> --port 0`
  /// without waiting for it. Bumps the generation so connections to a
  /// previous incarnation cannot be reused. The child dies with the thread
  /// that launched it (PR_SET_PDEATHSIG) and inherits only its stdout.
  Status Launch(const BackendConfig& config);

  /// Waits for the launched child's listening banner and marks the backend
  /// kUp. Call on the launching thread, with the config it launched with.
  Status Await(const BackendConfig& config);

  /// Signals the child (idempotent; no-op when not running).
  void Kill(int signal_number);

  /// Non-blocking waitpid. Returns true (and transitions to kDown, closing
  /// the pipe and pooled connections) iff the child has exited.
  bool Reap();

  /// Non-blocking drain of the child's stdout pipe so a chatty backend
  /// cannot fill it and block. Called from the monitor thread.
  void DrainOutput();

  /// Sends one request line and reads the complete wire response (`OK <n>` +
  /// n lines, or one `ERR` line). Transport failures (dial/write/read/EOF)
  /// return a Status error — the response string, including backend-side
  /// `ERR`, is a success; a response not complete by `deadline` (a backend
  /// hung without dying) is DeadlineExceeded. A failed connection is closed,
  /// not pooled. Thread-safe; connections come from the pool.
  Status SendRequest(const std::string& line,
                     std::chrono::steady_clock::time_point deadline,
                     std::string* response);

  size_t index() const { return index_; }
  BackendState state() const { return state_.load(std::memory_order_acquire); }
  void set_state(BackendState s) { state_.store(s, std::memory_order_release); }
  uint16_t port() const { return port_.load(std::memory_order_acquire); }
  pid_t pid() const { return pid_.load(std::memory_order_acquire); }
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }

  /// Requests currently inside SendRequest — the drain condition for rolling
  /// reload and the load signal for least-loaded fallback.
  uint64_t inflight() const {
    return inflight_.load(std::memory_order_acquire);
  }
  /// Lifetime requests forwarded to this backend (router.backend_requests).
  uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Times this backend was (re)spawned, minus the initial start.
  uint64_t respawns() const {
    return respawns_.load(std::memory_order_relaxed);
  }

  /// Snapshot path of the current incarnation (set by Launch).
  std::string snapshot_path() const;

 private:
  Status AcquireConn(BackendConn* conn);
  void ReleaseConn(BackendConn conn, bool healthy);
  void CloseAllConns();

  const size_t index_;
  std::atomic<BackendState> state_{BackendState::kDown};
  std::atomic<pid_t> pid_{-1};
  std::atomic<uint16_t> port_{0};
  std::atomic<uint64_t> generation_{0};
  std::atomic<uint64_t> inflight_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> respawns_{0};

  /// Swaps the stored stdout pipe fd for `fd`, closing the old one. The
  /// mutex serializes this against the monitor thread's non-blocking reads
  /// in DrainOutput — an fd must never be closed (and possibly reused) while
  /// a read on it is in flight.
  void SwapStdoutFd(int fd);

  mutable std::mutex stdout_mu_;  // guards stdout_fd_ (close vs. drain race)
  int stdout_fd_ = -1;

  mutable std::mutex mu_;  // guards pool_ and snapshot_path_
  std::vector<BackendConn> pool_;
  std::string snapshot_path_;
};

}  // namespace lamo

#endif  // LAMO_ROUTER_BACKEND_H_
