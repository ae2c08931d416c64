#ifndef LAMO_TESTS_SERVE_TCP_TEST_UTIL_H_
#define LAMO_TESTS_SERVE_TCP_TEST_UTIL_H_

// In-process TCP harness shared by the serve and router tests: a server
// thread running RunTcpServer on an ephemeral port, and a blocking client.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>

#include "serve/server.h"
#include "serve_test_util.h"
#include "util/status.h"

namespace lamo {

/// Runs RunTcpServer on a background thread with the given options and an
/// ephemeral port, and shuts it down with SIGTERM on destruction (the same
/// signal production uses), asserting the server drained cleanly. Serves
/// `line_service` when given, else a SnapshotService over the test snapshot.
class TestServer {
 public:
  explicit TestServer(ServeOptions options,
                      LineService* line_service = nullptr)
      : service_(Snapshot(TestSnapshot())) {
    LineService* served = line_service != nullptr ? line_service : &service_;
    options.port = 0;
    options.on_listening = [this](uint16_t port) {
      std::lock_guard<std::mutex> lock(mu_);
      port_ = port;
      cv_.notify_all();
    };
    log_ = std::tmpfile();  // keep listening/drained banners out of the log
    options.log = log_;
    thread_ = std::thread([this, options, served] {
      status_ = RunTcpServer(served, options);
    });
    std::unique_lock<std::mutex> lock(mu_);
    EXPECT_TRUE(cv_.wait_for(lock, std::chrono::seconds(10),
                             [this] { return port_ != 0; }))
        << "server did not start listening";
  }

  ~TestServer() {
    raise(SIGTERM);
    thread_.join();
    EXPECT_TRUE(status_.ok()) << status_.ToString();
    if (log_ != nullptr) std::fclose(log_);
  }

  uint16_t port() const { return port_; }
  SnapshotService& service() { return service_; }

 private:
  SnapshotService service_;
  std::mutex mu_;
  std::condition_variable cv_;
  uint16_t port_ = 0;
  std::thread thread_;
  Status status_;
  std::FILE* log_ = nullptr;
};

/// A blocking client socket with a receive timeout, so a server that wrongly
/// hangs fails the test instead of wedging the suite.
class Client {
 public:
  explicit Client(uint16_t port) {
    // Close-on-exec, like the servers' own sockets, so a process a test
    // server forks does not hold it open.
    fd_ = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd_, 0);
    timeval timeout{10, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(
        connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr),
        0)
        << std::strerror(errno);
  }
  ~Client() {
    if (fd_ >= 0) close(fd_);
  }

  void Send(const std::string& bytes) {
    ASSERT_EQ(send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(bytes.size()));
  }

  void HalfClose() { shutdown(fd_, SHUT_WR); }

  /// Reads until EOF (server closed) or the socket timeout; returns all
  /// bytes received.
  std::string RecvUntilClose() {
    std::string received;
    char chunk[4096];
    while (true) {
      const ssize_t n = recv(fd_, chunk, sizeof chunk, 0);
      if (n <= 0) break;
      received.append(chunk, static_cast<size_t>(n));
    }
    return received;
  }

  /// Reads one '\n'-terminated line (blocking, bounded by the timeout).
  std::string RecvLine() {
    std::string line;
    char c;
    while (recv(fd_, &c, 1, 0) == 1) {
      line.push_back(c);
      if (c == '\n') break;
    }
    return line;
  }

  /// Reads one whole wire response: `OK <n>` plus n payload lines, or a
  /// single `ERR` line.
  std::string RecvResponse() {
    std::string response = RecvLine();
    if (response.rfind("OK ", 0) == 0) {
      const unsigned long count = std::stoul(response.substr(3));
      for (unsigned long i = 0; i < count; ++i) response += RecvLine();
    }
    return response;
  }

 private:
  int fd_ = -1;
};

}  // namespace lamo

#endif  // LAMO_TESTS_SERVE_TCP_TEST_UTIL_H_
