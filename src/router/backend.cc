#include "router/backend.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "util/fault.h"

namespace lamo {
namespace {

using Clock = std::chrono::steady_clock;

/// Injected transport failure on the forward path: `error` action makes
/// SendRequest report IoError as if the socket died, exercising the router's
/// retry machinery; `crash` kills the router mid-forward for the crash
/// matrix.
const size_t kFaultForward = FaultPointId("router.forward");

/// Parses "...listening on 127.0.0.1:<port>..." out of a banner chunk.
bool ParsePortFromBanner(const std::string& text, uint16_t* port) {
  const std::string needle = "listening on 127.0.0.1:";
  const size_t at = text.find(needle);
  if (at == std::string::npos) return false;
  unsigned long value = 0;
  const char* digits = text.c_str() + at + needle.size();
  char* end = nullptr;
  value = std::strtoul(digits, &end, 10);
  if (end == digits || value == 0 || value > 65535) return false;
  *port = static_cast<uint16_t>(value);
  return true;
}

void SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags >= 0) fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// Dials 127.0.0.1:port. Returns -1 on failure.
int DialBackend(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

/// Writes all of `data` to `fd`, retrying short writes and EINTR.
bool WriteAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    done += static_cast<size_t>(n);
  }
  return true;
}

/// Reads one '\n'-terminated line from `fd` into `*line` (newline stripped),
/// using and refilling `*buffer`. Fails on EOF/error (IoError) or, for a
/// backend hung without dying, at `deadline` (DeadlineExceeded).
Status ReadLine(int fd, Clock::time_point deadline, const std::string& who,
                std::string* buffer, std::string* line) {
  while (true) {
    const size_t newline = buffer->find('\n');
    if (newline != std::string::npos) {
      line->assign(*buffer, 0, newline);
      buffer->erase(0, newline + 1);
      return Status::OK();
    }
    const auto left = std::chrono::ceil<std::chrono::milliseconds>(
        deadline - Clock::now());
    pollfd pfd{fd, POLLIN, 0};
    const int ready =
        poll(&pfd, 1, static_cast<int>(std::max<int64_t>(0, left.count())));
    if (ready == 0) {
      return Status::DeadlineExceeded(who + ": no reply within retry budget");
    }
    char chunk[4096];
    const ssize_t n = ready < 0 ? -1 : read(fd, chunk, sizeof chunk);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(who + ": read failed");
    }
    if (n == 0) {
      return Status::IoError(who + ": connection closed mid-response");
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

}  // namespace

const char* BackendStateName(BackendState state) {
  switch (state) {
    case BackendState::kDown:
      return "down";
    case BackendState::kUp:
      return "up";
    case BackendState::kDraining:
      return "draining";
  }
  return "unknown";
}

Backend::~Backend() {
  Kill(SIGKILL);
  if (pid() > 0) waitpid(pid(), nullptr, 0);
  SwapStdoutFd(-1);
  CloseAllConns();
}

void Backend::SwapStdoutFd(int fd) {
  std::lock_guard<std::mutex> lock(stdout_mu_);
  if (stdout_fd_ >= 0) close(stdout_fd_);
  stdout_fd_ = fd;
}

Status Backend::Spawn(const BackendConfig& config) {
  if (generation_.fetch_add(1, std::memory_order_acq_rel) > 0) {
    respawns_.fetch_add(1, std::memory_order_relaxed);
  }
  CloseAllConns();
  SwapStdoutFd(-1);

  int out_pipe[2];
  if (pipe(out_pipe) != 0) {
    return Status::IoError("backend " + std::to_string(index_) +
                           ": pipe() failed");
  }

  const pid_t child = fork();
  if (child < 0) {
    close(out_pipe[0]);
    close(out_pipe[1]);
    return Status::IoError("backend " + std::to_string(index_) +
                           ": fork() failed");
  }
  if (child == 0) {
    // Child: stdout -> pipe (the router parses the listening banner from
    // it); die with the router so killed tests cannot leak serve processes.
    dup2(out_pipe[1], STDOUT_FILENO);
    close(out_pipe[0]);
    close(out_pipe[1]);
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    // A backend must not inherit the router's fault arming: the injected
    // fault targets the router process, and kFaultExitCode from a backend
    // would masquerade as the router crash the matrix looks for.
    unsetenv("LAMO_FAULT");
    std::vector<const char*> argv = {config.binary.c_str(), "serve",
                                     "--snapshot", config.snapshot.c_str(),
                                     "--port", "0"};
    for (const std::string& arg : config.extra_args) {
      argv.push_back(arg.c_str());
    }
    argv.push_back(nullptr);
    execv(config.binary.c_str(), const_cast<char* const*>(argv.data()));
    _exit(127);  // exec failed
  }

  close(out_pipe[1]);
  pid_.store(child, std::memory_order_release);
  {
    std::lock_guard<std::mutex> lock(mu_);
    snapshot_path_ = config.snapshot;
  }

  // Read the child's stdout until the listening banner appears (or the
  // budget expires / the child exits). The pipe stays open afterwards and
  // the monitor thread keeps draining it.
  std::string banner;
  uint16_t port = 0;
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(config.spawn_timeout_ms);
  bool ok = false;
  while (Clock::now() < deadline) {
    pollfd pfd{out_pipe[0], POLLIN, 0};
    const int ready = poll(&pfd, 1, 100);
    if (ready < 0 && errno != EINTR) break;
    if (ready > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0) {
      char chunk[512];
      const ssize_t n = read(out_pipe[0], chunk, sizeof chunk);
      if (n <= 0) break;  // EOF: child died before listening
      banner.append(chunk, static_cast<size_t>(n));
      if (ParsePortFromBanner(banner, &port)) {
        ok = true;
        break;
      }
    }
    int wait_status = 0;
    if (waitpid(child, &wait_status, WNOHANG) == child) {
      pid_.store(-1, std::memory_order_release);
      close(out_pipe[0]);
      return Status::IoError("backend " + std::to_string(index_) +
                             ": serve process exited before listening");
    }
  }
  if (!ok) {
    close(out_pipe[0]);
    Kill(SIGKILL);
    if (pid() > 0) {
      waitpid(pid(), nullptr, 0);
      pid_.store(-1, std::memory_order_release);
    }
    return Status::DeadlineExceeded("backend " + std::to_string(index_) +
                                    ": no listening banner within " +
                                    std::to_string(config.spawn_timeout_ms) +
                                    "ms");
  }

  SetNonBlocking(out_pipe[0]);
  SwapStdoutFd(out_pipe[0]);
  port_.store(port, std::memory_order_release);
  set_state(BackendState::kUp);
  if (config.log != nullptr) {
    std::fprintf(config.log,
                 "lamo router: backend %zu up (pid %ld, port %u, %s)\n",
                 index_, static_cast<long>(child), port,
                 config.snapshot.c_str());
    std::fflush(config.log);
  }
  return Status::OK();
}

void Backend::Kill(int signal_number) {
  const pid_t p = pid();
  if (p > 0) kill(p, signal_number);
}

bool Backend::Reap() {
  const pid_t p = pid();
  if (p <= 0) return false;
  int wait_status = 0;
  if (waitpid(p, &wait_status, WNOHANG) != p) return false;
  pid_.store(-1, std::memory_order_release);
  set_state(BackendState::kDown);
  SwapStdoutFd(-1);
  CloseAllConns();
  return true;
}

void Backend::DrainOutput() {
  std::lock_guard<std::mutex> lock(stdout_mu_);
  if (stdout_fd_ < 0) return;
  char chunk[1024];
  while (read(stdout_fd_, chunk, sizeof chunk) > 0) {
  }
}

std::string Backend::snapshot_path() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_path_;
}

Status Backend::AcquireConn(BackendConn* conn) {
  const uint64_t gen = generation();
  {
    std::lock_guard<std::mutex> lock(mu_);
    while (!pool_.empty()) {
      BackendConn cached = std::move(pool_.back());
      pool_.pop_back();
      if (cached.generation == gen && cached.fd >= 0) {
        *conn = std::move(cached);
        return Status::OK();
      }
      if (cached.fd >= 0) close(cached.fd);
    }
  }
  const int fd = DialBackend(port());
  if (fd < 0) {
    return Status::Unavailable("backend " + std::to_string(index_) +
                               ": connect failed");
  }
  conn->fd = fd;
  conn->buffer.clear();
  conn->generation = gen;
  return Status::OK();
}

void Backend::ReleaseConn(BackendConn conn, bool healthy) {
  if (conn.fd < 0) return;
  if (!healthy || conn.generation != generation() ||
      state() == BackendState::kDown) {
    close(conn.fd);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  pool_.push_back(std::move(conn));
}

void Backend::CloseAllConns() {
  std::lock_guard<std::mutex> lock(mu_);
  for (BackendConn& conn : pool_) {
    if (conn.fd >= 0) close(conn.fd);
  }
  pool_.clear();
}

Status Backend::SendRequest(const std::string& line,
                            std::chrono::steady_clock::time_point deadline,
                            std::string* response) {
  inflight_.fetch_add(1, std::memory_order_acq_rel);
  struct InflightGuard {
    std::atomic<uint64_t>* counter;
    ~InflightGuard() { counter->fetch_sub(1, std::memory_order_acq_rel); }
  } guard{&inflight_};

  if (FaultHit(kFaultForward) == FaultAction::kError) {
    return Status::IoError("injected fault: router.forward");
  }

  BackendConn conn;
  Status acquired = AcquireConn(&conn);
  if (!acquired.ok()) return acquired;

  const std::string who = "backend " + std::to_string(index_);
  std::string head;
  Status result = WriteAll(conn.fd, line + "\n")
                      ? ReadLine(conn.fd, deadline, who, &conn.buffer, &head)
                      : Status::IoError(who + ": write failed");
  // ERR responses are one line and already complete; any other shape is
  // passed through verbatim as a single line.
  std::string full = head + "\n";
  if (result.ok() && head.rfind("OK ", 0) == 0) {
    char* end = nullptr;
    const unsigned long count = std::strtoul(head.c_str() + 3, &end, 10);
    if (end == head.c_str() + 3) {
      result = Status::IoError(who + ": malformed OK header");
    }
    std::string payload_line;
    for (unsigned long i = 0; i < count && result.ok(); ++i) {
      result = ReadLine(conn.fd, deadline, who, &conn.buffer, &payload_line);
      full += payload_line + "\n";
    }
  }
  // After a failure the stream position is unknown: the connection is
  // closed, not pooled.
  ReleaseConn(std::move(conn), result.ok());
  if (result.ok()) {
    *response = std::move(full);
    requests_.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

}  // namespace lamo
