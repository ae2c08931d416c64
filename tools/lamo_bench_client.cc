// lamo_bench_client — load driver and one-shot client for `lamo serve` and
// `lamo router`. It checks answers; it does not measure latency (perfbench
// owns every serve and router latency figure, see perfbench/README.md).
//
//   lamo_bench_client --port 7471 --connections 4 --requests 200
//   lamo_bench_client --port 7471 --query "PREDICT 42 3"
//
// Load mode opens N concurrent TCP connections to 127.0.0.1:<port>, each
// issuing M requests back-to-back (a fixed deterministic mix of PREDICT and
// MOTIFS over the target's protein range), and exits 0 only if every
// request was answered OK with no transport failure; on any ERR it exits 1
// and names the first failing request.
//
// Query mode sends one request line and prints the payload lines verbatim
// (exit 0 on OK, 1 on ERR) — the byte-compare hook used by
// tests/cli_serve_test.sh to diff server answers against offline
// `lamo predict`.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/prometheus.h"
#include "util/string_util.h"

namespace lamo {
namespace {

int Usage() {
  std::fprintf(
      stderr,
      "usage: lamo_bench_client --port P [--connections N] [--requests M]\n"
      "                         [--proteins N]\n"
      "                         [--query \"REQUEST LINE\"]\n"
      "                         [--abuse slowloris|longline|halfclose|burst]\n"
      "                         [--top [--watch N] [--interval-ms MS]]\n"
      "Load mode (default): N connections x M requests of a fixed\n"
      "PREDICT/MOTIFS mix against lamo serve or lamo router on\n"
      "127.0.0.1:P (port 1..65535); exit 0 iff every request was answered\n"
      "OK, else exit 1 naming the first failing request. A HEALTH probe\n"
      "must answer `ready ...`; the protein range is --proteins when\n"
      "given, else HEALTH's proteins=N (a router's HEALTH carries none, so\n"
      "it needs --proteins). Latency is measured by perfbench, not here.\n"
      "Query mode (--query): send one request, print the payload lines\n"
      "verbatim; exit 0 on OK, 1 on ERR.\n"
      "Top mode (--top): poll STATS + METRICS and print the raw stats (one\n"
      "`backend i ...` line per router backend) plus a table of the derived\n"
      "lifetime/10s/60s rate and percentile gauges per backend; one shot by\n"
      "default, --watch N repeats with --interval-ms between polls.\n"
      "Abuse mode (--abuse): behave like a hostile client and exit 0 iff\n"
      "the server honored its overload contract —\n"
      "  slowloris  unfinished request line -> ERR DeadlineExceeded + close\n"
      "  longline   oversized request line -> ERR InvalidArgument + close\n"
      "  halfclose  request then shutdown(WR) -> answer + clean close\n"
      "  burst      N idle-held connections, served FIFO past max-conns\n");
  return 2;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Buffered '\n'-delimited reads from a connected socket.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  bool ReadLine(std::string* line) {
    line->clear();
    for (;;) {
      const size_t newline = buffer_.find('\n', pos_);
      if (newline != std::string::npos) {
        line->assign(buffer_, pos_, newline - pos_);
        pos_ = newline + 1;
        if (pos_ == buffer_.size()) {
          buffer_.clear();
          pos_ = 0;
        }
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
  size_t pos_ = 0;
};

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Sends one request and reads the complete response (header + payload).
/// Returns false on a transport failure or malformed header.
bool RoundTrip(int fd, LineReader& reader, const std::string& request,
               std::string* header, std::vector<std::string>* payload) {
  payload->clear();
  if (!SendAll(fd, request + "\n")) return false;
  if (!reader.ReadLine(header)) return false;
  if (header->rfind("OK ", 0) == 0) {
    uint64_t count = 0;
    if (!ParseUint64(header->substr(3), &count)) return false;
    payload->reserve(count);
    for (uint64_t i = 0; i < count; ++i) {
      std::string line;
      if (!reader.ReadLine(&line)) return false;
      payload->push_back(std::move(line));
    }
    return true;
  }
  return header->rfind("ERR ", 0) == 0;
}

int RunQuery(uint16_t port, const std::string& query) {
  const int fd = Connect(port);
  if (fd < 0) {
    std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%u\n", port);
    return 1;
  }
  LineReader reader(fd);
  std::string header;
  std::vector<std::string> payload;
  const bool ok = RoundTrip(fd, reader, query, &header, &payload);
  ::close(fd);
  if (!ok) {
    std::fprintf(stderr, "error: transport failure or malformed response\n");
    return 1;
  }
  if (header.rfind("ERR", 0) == 0) {
    std::fprintf(stderr, "%s\n", header.c_str());
    return 1;
  }
  for (const std::string& line : payload) std::printf("%s\n", line.c_str());
  return 0;
}

struct WorkerResult {
  uint64_t ok = 0;
  uint64_t err = 0;
  bool transport_failed = false;
  // The first failing request this connection saw, reported when the run
  // exits nonzero so an ERR deep inside a long run is diagnosable.
  std::string first_err_request;
  std::string first_err_header;
};

void RunWorker(uint16_t port, size_t index, size_t requests,
               size_t num_proteins, WorkerResult* result) {
  const int fd = Connect(port);
  if (fd < 0) {
    result->transport_failed = true;
    return;
  }
  LineReader reader(fd);
  char request[64];
  for (size_t i = 0; i < requests; ++i) {
    // Deterministic mix: 3 PREDICTs then a MOTIFS, proteins striding the
    // snapshot range differently per connection so cache hits and misses
    // both occur.
    const size_t protein = (index * 131 + i * 17) % num_proteins;
    if (i % 4 == 3) {
      std::snprintf(request, sizeof request, "MOTIFS %zu", protein);
    } else {
      std::snprintf(request, sizeof request, "PREDICT %zu", protein);
    }
    std::string header;
    std::vector<std::string> payload;
    if (!RoundTrip(fd, reader, request, &header, &payload)) {
      result->transport_failed = true;
      break;
    }
    if (header.rfind("OK", 0) == 0) {
      ++result->ok;
    } else {
      ++result->err;
      if (result->first_err_request.empty()) {
        result->first_err_request = request;
        result->first_err_header = header;
      }
    }
  }
  ::close(fd);
}

/// The protein count a HEALTH payload advertises (`proteins=N`), or 0 when
/// it carries none — a router's cluster view does not.
size_t HealthProteins(const std::string& health) {
  const size_t marker = health.find("proteins=");
  if (marker == std::string::npos) return 0;
  const std::string tail = health.substr(marker + 9);
  uint64_t parsed = 0;
  if (!ParseUint64(tail.substr(0, tail.find(' ')), &parsed)) return 0;
  return static_cast<size_t>(parsed);
}

int RunLoad(uint16_t port, size_t connections, size_t requests,
            size_t proteins_override) {
  // HEALTH probe first: the target must report `ready` (a serve daemon's
  // `ready proteins=N ...`, or a router's `ready backends=U/N ...` with
  // every backend up) and, unless --proteins is given, the protein count
  // the request mix spans.
  std::string health;
  {
    const int fd = Connect(port);
    if (fd < 0) {
      std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%u\n", port);
      return 1;
    }
    LineReader reader(fd);
    std::string header;
    std::vector<std::string> payload;
    const bool ok = RoundTrip(fd, reader, "HEALTH", &header, &payload) &&
                    !payload.empty();
    ::close(fd);
    if (!ok) {
      std::fprintf(stderr, "error: HEALTH probe failed\n");
      return 1;
    }
    health = payload[0];
  }
  if (health.rfind("ready", 0) != 0) {
    std::fprintf(stderr, "error: target not ready: %s\n", health.c_str());
    return 1;
  }
  const size_t num_proteins =
      proteins_override > 0 ? proteins_override : HealthProteins(health);
  if (num_proteins == 0) {
    std::fprintf(stderr,
                 "error: HEALTH carries no protein count (%s); pass "
                 "--proteins N\n",
                 health.c_str());
    return Usage();
  }

  std::vector<WorkerResult> results(connections);
  std::vector<std::thread> workers;
  workers.reserve(connections);
  for (size_t c = 0; c < connections; ++c) {
    workers.emplace_back(RunWorker, port, c, requests, num_proteins,
                         &results[c]);
  }
  for (std::thread& worker : workers) worker.join();

  uint64_t ok = 0, err = 0;
  bool transport_failed = false;
  for (const WorkerResult& r : results) {
    ok += r.ok;
    err += r.err;
    transport_failed = transport_failed || r.transport_failed;
  }
  std::printf("%zu connections x %zu requests: %llu OK, %llu ERR\n",
              connections, requests, static_cast<unsigned long long>(ok),
              static_cast<unsigned long long>(err));
  if (transport_failed) {
    std::fprintf(stderr, "error: at least one connection failed mid-run\n");
    return 1;
  }
  for (size_t c = 0; c < results.size(); ++c) {
    if (results[c].first_err_request.empty()) continue;
    std::fprintf(stderr,
                 "error: connection %zu request \"%s\" answered \"%s\" "
                 "(%llu ERR total)\n",
                 c, results[c].first_err_request.c_str(),
                 results[c].first_err_header.c_str(),
                 static_cast<unsigned long long>(err));
    return 1;
  }
  return 0;
}

/// Top mode: polls STATS + METRICS and prints the raw stats (the router's
/// include one `backend i ...` line per backend) followed by a
/// metric x window table of the derived rate/percentile gauges, one row per
/// (metric, backend). One shot by default; --watch N repeats N times with
/// --interval-ms between polls.
int RunTop(uint16_t port, size_t iterations, uint64_t interval_ms) {
  for (size_t iter = 0; iter < iterations; ++iter) {
    if (iter > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      std::printf("\n");
    }
    const int fd = Connect(port);
    if (fd < 0) {
      std::fprintf(stderr, "error: cannot connect to 127.0.0.1:%u\n", port);
      return 1;
    }
    LineReader reader(fd);
    std::string header;
    std::vector<std::string> stats;
    std::vector<std::string> metrics;
    if (!RoundTrip(fd, reader, "STATS", &header, &stats) ||
        header.rfind("OK ", 0) != 0) {
      std::fprintf(stderr, "error: STATS failed (%s)\n", header.c_str());
      ::close(fd);
      return 1;
    }
    if (!RoundTrip(fd, reader, "METRICS", &header, &metrics) ||
        header.rfind("OK ", 0) != 0) {
      std::fprintf(stderr, "error: METRICS failed (%s)\n", header.c_str());
      ::close(fd);
      return 1;
    }
    ::close(fd);

    std::printf("== lamo top: 127.0.0.1:%u (poll %zu/%zu) ==\n", port,
                iter + 1, iterations);
    for (const std::string& line : stats) std::printf("%s\n", line.c_str());

    // (metric, backend) -> window -> value. std::map keys sort the rows so
    // a backend's series group together under its metric.
    std::map<std::pair<std::string, std::string>, std::map<std::string, double>>
        rows;
    // Only window-labeled samples (rates and percentiles) are table rows;
    // series without a backend label are the polled process's own ("-").
    for (const std::string& line : metrics) {
      if (line.empty() || line[0] == '#') continue;
      PromSample sample;
      std::string error;
      if (!ParsePromSample(line, &sample, &error)) continue;
      const auto window = sample.labels.find("window");
      if (window == sample.labels.end()) continue;
      const auto backend = sample.labels.find("backend");
      const std::string row_backend =
          backend == sample.labels.end() ? "-" : backend->second;
      rows[{sample.name, row_backend}][window->second] = sample.value;
    }
    if (rows.empty()) {
      std::printf("(no windowed series yet — scrape again after traffic)\n");
      continue;
    }
    std::printf("%-44s %-8s %12s %12s %12s\n", "metric", "backend", "lifetime",
                "10s", "60s");
    static const char* kWindows[] = {"lifetime", "10s", "60s"};
    for (const auto& [key, windows] : rows) {
      std::string cells;
      char cell[16];
      for (const char* window : kWindows) {
        const auto it = windows.find(window);
        if (it == windows.end()) {
          std::snprintf(cell, sizeof cell, " %12s", "-");
        } else {
          std::snprintf(cell, sizeof cell, " %12.1f", it->second);
        }
        cells += cell;
      }
      std::printf("%-44s %-8s%s\n", key.first.c_str(), key.second.c_str(),
                  cells.c_str());
    }
  }
  return 0;
}

/// Reads until the server closes the connection (or the receive timeout
/// trips); returns every byte received.
std::string RecvUntilClose(int fd) {
  std::string received;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n <= 0) break;
    received.append(chunk, static_cast<size_t>(n));
  }
  return received;
}

int ConnectAbuse(uint16_t port) {
  const int fd = Connect(port);
  if (fd < 0) {
    std::fprintf(stderr, "abuse: cannot connect to 127.0.0.1:%u\n", port);
    return -1;
  }
  // A server that wrongly hangs must fail the run, not wedge it.
  timeval timeout{15, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
  return fd;
}

/// Misbehaves on purpose and verifies the server's documented overload
/// response. Exit 0 iff the contract held; diagnostics on stderr otherwise.
int RunAbuse(uint16_t port, const std::string& mode, size_t connections) {
  if (mode == "slowloris") {
    // Start a request line and never finish it. The server must answer with
    // ERR DeadlineExceeded once --request-timeout-ms expires, then close.
    const int fd = ConnectAbuse(port);
    if (fd < 0) return 1;
    SendAll(fd, "PRED");
    const std::string response = RecvUntilClose(fd);
    ::close(fd);
    if (response.find("ERR DeadlineExceeded") == std::string::npos) {
      std::fprintf(stderr, "abuse slowloris: expected ERR DeadlineExceeded, "
                   "got \"%s\"\n", response.c_str());
      return 1;
    }
    std::printf("abuse slowloris: ERR DeadlineExceeded + close\n");
    return 0;
  }
  if (mode == "longline") {
    // 8 KiB with no newline: overflows any --max-line-bytes below that. The
    // server must reject the line with ERR InvalidArgument, not buffer on.
    const int fd = ConnectAbuse(port);
    if (fd < 0) return 1;
    SendAll(fd, std::string(8192, 'A'));
    const std::string response = RecvUntilClose(fd);
    ::close(fd);
    if (response.find("ERR InvalidArgument") == std::string::npos ||
        response.find("request line too long") == std::string::npos) {
      std::fprintf(stderr, "abuse longline: expected ERR InvalidArgument "
                   "request line too long, got \"%s\"\n", response.c_str());
      return 1;
    }
    std::printf("abuse longline: ERR InvalidArgument + close\n");
    return 0;
  }
  if (mode == "halfclose") {
    // Pipeline one request, then shut down our write side. The server must
    // still answer the pipelined request and then close cleanly on the EOF.
    const int fd = ConnectAbuse(port);
    if (fd < 0) return 1;
    if (!SendAll(fd, "HEALTH\n")) {
      ::close(fd);
      std::fprintf(stderr, "abuse halfclose: send failed\n");
      return 1;
    }
    ::shutdown(fd, SHUT_WR);
    const std::string response = RecvUntilClose(fd);
    ::close(fd);
    if (response.rfind("OK ", 0) != 0) {
      std::fprintf(stderr, "abuse halfclose: expected OK response before "
                   "close, got \"%s\"\n", response.c_str());
      return 1;
    }
    std::printf("abuse halfclose: answered then closed cleanly\n");
    return 0;
  }
  if (mode == "burst") {
    // Open every connection up front — more than --max-conns — then serve
    // them one at a time in connect order. Excess connections sit in the
    // kernel backlog; every single one must still be answered (accept
    // backpressure, not drops) as earlier ones close and free slots.
    std::vector<int> fds;
    fds.reserve(connections);
    for (size_t c = 0; c < connections; ++c) {
      const int fd = ConnectAbuse(port);
      if (fd < 0) {
        for (int open_fd : fds) ::close(open_fd);
        return 1;
      }
      fds.push_back(fd);
    }
    size_t answered = 0;
    for (size_t c = 0; c < fds.size(); ++c) {
      LineReader reader(fds[c]);
      std::string header;
      std::vector<std::string> payload;
      const bool ok = RoundTrip(fds[c], reader, "HEALTH", &header, &payload) &&
                      header.rfind("OK ", 0) == 0;
      ::close(fds[c]);
      if (!ok) {
        std::fprintf(stderr,
                     "abuse burst: connection %zu/%zu was not answered "
                     "(header \"%s\")\n", c + 1, fds.size(), header.c_str());
        return 1;
      }
      ++answered;
    }
    std::printf("abuse burst: all %zu connections answered\n", answered);
    return 0;
  }
  std::fprintf(stderr, "error: unknown --abuse mode \"%s\"\n", mode.c_str());
  return Usage();
}

int Main(int argc, char** argv) {
  uint16_t port = 0;
  size_t connections = 4;
  size_t requests = 100;
  size_t proteins = 0;
  std::string query;
  std::string abuse;
  bool have_query = false;
  bool top = false;
  size_t watch = 1;
  uint64_t interval_ms = 2000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto need_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (arg == "--port" || arg == "--connections" || arg == "--requests" ||
        arg == "--proteins" || arg == "--watch" || arg == "--interval-ms") {
      const char* value = need_value(arg.c_str());
      if (value == nullptr) return Usage();
      uint64_t parsed = 0;
      if (!ParseUint64(value, &parsed)) {
        std::fprintf(stderr, "error: invalid value \"%s\" for %s\n", value,
                     arg.c_str());
        return Usage();
      }
      if (arg == "--port") {
        if (parsed == 0 || parsed > 65535) {
          std::fprintf(stderr, "error: --port must be in 1..65535, got %s\n",
                       value);
          return Usage();
        }
        port = static_cast<uint16_t>(parsed);
      } else if (arg == "--connections") {
        connections = static_cast<size_t>(parsed);
      } else if (arg == "--proteins") {
        proteins = static_cast<size_t>(parsed);
      } else if (arg == "--watch") {
        watch = static_cast<size_t>(parsed);
      } else if (arg == "--interval-ms") {
        interval_ms = parsed;
      } else {
        requests = static_cast<size_t>(parsed);
      }
    } else if (arg == "--top") {
      top = true;
    } else if (arg == "--query") {
      const char* value = need_value("--query");
      if (value == nullptr) return Usage();
      query = value;
      have_query = true;
    } else if (arg == "--abuse") {
      const char* value = need_value("--abuse");
      if (value == nullptr) return Usage();
      abuse = value;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", arg.c_str());
      return Usage();
    }
  }
  if (port == 0) {
    std::fprintf(stderr, "error: --port is required\n");
    return Usage();
  }
  if (have_query) return RunQuery(port, query);
  if (top) {
    if (watch == 0) {
      std::fprintf(stderr, "error: --watch must be > 0\n");
      return Usage();
    }
    return RunTop(port, watch, interval_ms);
  }
  if (!abuse.empty()) {
    if (connections == 0) {
      std::fprintf(stderr, "error: --connections must be > 0\n");
      return Usage();
    }
    return RunAbuse(port, abuse, connections);
  }
  if (connections == 0 || requests == 0) {
    std::fprintf(stderr, "error: --connections and --requests must be > 0\n");
    return Usage();
  }
  return RunLoad(port, connections, requests, proteins);
}

}  // namespace
}  // namespace lamo

int main(int argc, char** argv) { return lamo::Main(argc, argv); }
