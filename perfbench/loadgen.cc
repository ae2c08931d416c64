// perfbench_loadgen — open-loop request generator for `lamo serve` and
// `lamo router`.
//
//   perfbench_loadgen --port P --schedule FILE --out FILE
//                     [--closed] [--no-payload] [--delayed-ack]
//
// The schedule holds one request per line: `<due_us> <conn> <request line>`,
// where due_us is the send time relative to the generator's start and conn
// is 0 or 1. One thread drives each connection (at most two). A request is
// sent when it falls due, whether or not earlier replies have arrived, so a
// slow server builds a backlog rather than receiving less load. With
// --closed each connection instead sends its next request only after the
// previous reply (due times are ignored), which measures the round trip.
//
// The generator acknowledges every reply at once (TCP_QUICKACK after each
// read). The servers leave Nagle's algorithm on, so with a delayed-ACK
// client a reply sent while the previous one is unacknowledged waits until
// the client's next request carries the ACK, and open-loop latency then
// tracks the schedule's gap instead of the server. --delayed-ack keeps the
// kernel's default ACK timing, to measure what such a client sees.
//
// The output has one line per request, in schedule order:
//   `<due_ns> <send_ns> <recv_ns> <ok> <payload>`
// with times relative to the start, recv_ns -1 for a request that got no
// reply within 5 s of the last due time, ok 1 for an `OK` reply, and the
// reply's lines joined by the byte 0x1f (`-` with --no-payload).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

// How long after the last due time replies are still awaited.
constexpr int64_t kGraceNs = 5'000'000'000;

struct Item {
  int64_t due_ns = 0;
  int conn = 0;
  std::string line;
  int64_t send_ns = -1;
  int64_t recv_ns = -1;
  bool ok = false;
  std::string payload;
};

int64_t NanosSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

int Connect(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  return fd;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

// Splits complete replies off the front of `buffer`. A reply is `OK <n>`
// plus n lines, or one `ERR ...` line. Returns false while incomplete.
bool TakeReply(std::string* buffer, bool* ok, std::string* payload) {
  const size_t first_end = buffer->find('\n');
  if (first_end == std::string::npos) return false;
  const std::string head = buffer->substr(0, first_end);
  size_t end = first_end + 1;
  std::string body;
  if (head.rfind("OK ", 0) == 0) {
    const long lines = std::strtol(head.c_str() + 3, nullptr, 10);
    for (long i = 0; i < lines; ++i) {
      const size_t next = buffer->find('\n', end);
      if (next == std::string::npos) return false;
      if (i > 0) body.push_back('\x1f');
      body.append(*buffer, end, next - end);
      end = next + 1;
    }
    *ok = true;
  } else {
    body = head;
    *ok = false;
  }
  buffer->erase(0, end);
  *payload = std::move(body);
  return true;
}

// Drives one connection over `items` (indices into the shared schedule).
void RunConnection(int port, bool closed, bool quick_ack, int64_t deadline_ns,
                   Clock::time_point start, std::vector<Item>* all,
                   const std::vector<size_t>& items) {
  const int fd = Connect(port);
  if (fd < 0) return;  // every item stays unanswered and counts as failed
  std::string buffer;
  char chunk[65536];
  size_t next_send = 0;
  size_t next_recv = 0;
  while (next_recv < items.size()) {
    const int64_t now = NanosSince(start);
    if (now > deadline_ns) break;
    // Send everything that is due (closed loop: only when nothing is out).
    while (next_send < items.size() &&
           (closed ? next_send == next_recv
                   : (*all)[items[next_send]].due_ns <= now)) {
      Item& item = (*all)[items[next_send]];
      item.send_ns = NanosSince(start);
      if (closed) item.due_ns = item.send_ns;
      if (!SendAll(fd, item.line + "\n")) {
        close(fd);
        return;
      }
      ++next_send;
    }
    int64_t wait_ns = 50'000'000;
    if (!closed && next_send < items.size()) {
      wait_ns = std::max<int64_t>(
          0, (*all)[items[next_send]].due_ns - NanosSince(start));
    }
    // Wait for a reply or until the next request is due, whichever is first.
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ppoll(&pfd, 1, &ts, nullptr);
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    if (quick_ack) {
      // Quick-ACK mode lapses on its own; re-arm it after every read.
      const int one = 1;
      setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof one);
    }
    const int64_t recv_ns = NanosSince(start);
    buffer.append(chunk, static_cast<size_t>(n));
    bool ok = false;
    std::string payload;
    while (next_recv < next_send && TakeReply(&buffer, &ok, &payload)) {
      Item& item = (*all)[items[next_recv]];
      item.recv_ns = recv_ns;
      item.ok = ok;
      item.payload = std::move(payload);
      ++next_recv;
    }
  }
  close(fd);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_loadgen --port P --schedule FILE --out FILE "
               "[--closed] [--no-payload] [--delayed-ack]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  int port = 0;
  std::string schedule_path;
  std::string out_path;
  bool closed = false;
  bool payloads = true;
  bool quick_ack = true;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--closed") {
      closed = true;
      continue;
    }
    if (flag == "--no-payload") {
      payloads = false;
      continue;
    }
    if (flag == "--delayed-ack") {
      quick_ack = false;
      continue;
    }
    if (i + 1 >= argc) return Usage();
    const std::string value = argv[++i];
    if (flag == "--port") {
      port = std::atoi(value.c_str());
    } else if (flag == "--schedule") {
      schedule_path = value;
    } else if (flag == "--out") {
      out_path = value;
    } else {
      return Usage();
    }
  }
  if (port <= 0 || schedule_path.empty() || out_path.empty()) return Usage();

  std::vector<Item> items;
  {
    std::ifstream in(schedule_path);
    if (!in.is_open()) {
      std::fprintf(stderr, "cannot open %s\n", schedule_path.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      std::istringstream fields(line);
      Item item;
      int64_t due_us = 0;
      fields >> due_us >> item.conn;
      std::getline(fields >> std::ws, item.line);
      if (item.conn < 0 || item.conn > 1) {
        std::fprintf(stderr, "connection must be 0 or 1: %s\n", line.c_str());
        return 1;
      }
      item.due_ns = due_us * 1000;
      items.push_back(std::move(item));
    }
  }
  std::vector<size_t> per_conn[2];
  int64_t last_due = 0;
  for (size_t i = 0; i < items.size(); ++i) {
    per_conn[items[i].conn].push_back(i);
    last_due = std::max(last_due, items[i].due_ns);
  }
  const int64_t deadline_ns =
      closed ? INT64_MAX : last_due + kGraceNs;

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (const auto& conn_items : per_conn) {
    if (conn_items.empty()) continue;
    threads.emplace_back(RunConnection, port, closed, quick_ack, deadline_ns,
                         start, &items, std::cref(conn_items));
  }
  for (std::thread& thread : threads) thread.join();

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  for (const Item& item : items) {
    std::fprintf(out, "%lld %lld %lld %d %s\n",
                 static_cast<long long>(item.due_ns),
                 static_cast<long long>(item.send_ns),
                 static_cast<long long>(item.recv_ns), item.ok ? 1 : 0,
                 payloads ? item.payload.c_str() : "-");
  }
  return std::fclose(out) == 0 ? 0 : 1;
}
