// Process-level router tests: spawn real `lamo serve` backends (the lamo
// binary path is compiled in via LAMO_BINARY_PATH), route through Cluster /
// RouterService, and compare every answer byte-for-byte against an
// in-process SnapshotService over the same snapshot. Includes the
// backend-death drill: SIGKILL a backend mid-burst and require every request
// to still be answered correctly through the respawn window, and the
// hung-backend drill: SIGSTOP a backend and require its requests to fail
// within the retry budget while the other shard keeps answering.
#include "router/cluster.h"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "parallel/parallel_for.h"
#include "router/router.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "../serve/serve_test_util.h"
#include "../serve/tcp_test_util.h"

namespace lamo {
namespace {

/// Temp dir with the test snapshot (and its 2-shard split) written once.
class RouterClusterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dir_ = new std::filesystem::path(
        std::filesystem::temp_directory_path() /
        ("lamo_router_test_" + std::to_string(getpid())));
    std::filesystem::create_directories(*dir_);
    base_ = new std::string((*dir_ / "model.lamosnap").string());
    ASSERT_TRUE(WriteSnapshot(TestSnapshot(), *base_).ok());
    for (uint32_t i = 0; i < 2; ++i) {
      ASSERT_TRUE(WriteSnapshot(MakeShard(TestSnapshot(), i, 2),
                                ShardSnapshotPath(*base_, i, 2))
                      .ok());
    }
  }

  static void TearDownTestSuite() {
    std::error_code ec;
    std::filesystem::remove_all(*dir_, ec);
    delete dir_;
    delete base_;
    dir_ = nullptr;
    base_ = nullptr;
  }

  static ClusterOptions Options(size_t backends, bool sharded) {
    ClusterOptions options;
    options.binary = LAMO_BINARY_PATH;
    options.snapshot = *base_;
    options.sharded = sharded;
    options.num_backends = backends;
    options.retry_deadline_ms = 15'000;
    return options;
  }

  static std::filesystem::path* dir_;
  static std::string* base_;
};

std::filesystem::path* RouterClusterTest::dir_ = nullptr;
std::string* RouterClusterTest::base_ = nullptr;

TEST_F(RouterClusterTest, ForwardAnswersLikeLocalService) {
  Cluster cluster(Options(1, /*sharded=*/false));
  ASSERT_TRUE(cluster.Start().ok());
  SnapshotService local(TestSnapshot());

  std::string response;
  bool retried = false;
  ASSERT_TRUE(cluster.Forward(0, "PREDICT 5 3", &response, &retried).ok());
  EXPECT_EQ(response, local.Handle("PREDICT 5 3"));
  EXPECT_FALSE(retried);
  ASSERT_TRUE(cluster.Forward(0, "MOTIFS 5", &response, &retried).ok());
  EXPECT_EQ(response, local.Handle("MOTIFS 5"));
  EXPECT_EQ(cluster.num_up(), 1u);
  cluster.Stop();
}

TEST_F(RouterClusterTest, RouterServiceShardedMatchesSingleSnapshot) {
  Cluster cluster(Options(2, /*sharded=*/true));
  ASSERT_TRUE(cluster.Start().ok());
  RouterService router(&cluster, /*sharded=*/true);
  SnapshotService local(TestSnapshot());

  for (uint32_t p = 0; p < 24; ++p) {
    const std::string predict = "PREDICT " + std::to_string(p) + " 3";
    EXPECT_EQ(router.Handle(predict), local.Handle(predict)) << predict;
    const std::string motifs = "MOTIFS " + std::to_string(p);
    EXPECT_EQ(router.Handle(motifs), local.Handle(motifs)) << motifs;
  }
  // TERMINFO answers are placement-independent (every shard keeps the full
  // ontology).
  const std::string term =
      "TERMINFO " +
      TestSnapshot().ontology.TermName(TestSnapshot().categories[0]);
  EXPECT_EQ(router.Handle(term), local.Handle(term));
  EXPECT_EQ(router.stats().errors.load(), 0u);
  cluster.Stop();
}

TEST_F(RouterClusterTest, RouterServiceReplicatedMatchesSingleSnapshot) {
  Cluster cluster(Options(2, /*sharded=*/false));
  ASSERT_TRUE(cluster.Start().ok());
  RouterService router(&cluster, /*sharded=*/false);
  SnapshotService local(TestSnapshot());

  for (uint32_t p = 0; p < 24; ++p) {
    const std::string predict = "PREDICT " + std::to_string(p) + " 2";
    EXPECT_EQ(router.Handle(predict), local.Handle(predict)) << predict;
  }
  // Both backends took some share of the traffic (consistent hashing
  // spreads keys; 24 distinct proteins make a one-sided split vanishingly
  // unlikely).
  EXPECT_GT(cluster.backend(0).requests() + cluster.backend(1).requests(),
            23u);
  cluster.Stop();
}

TEST_F(RouterClusterTest, HealthAndStatsAggregateClusterView) {
  Cluster cluster(Options(2, /*sharded=*/true));
  ASSERT_TRUE(cluster.Start().ok());
  RouterService router(&cluster, /*sharded=*/true);

  const std::string health = router.Handle("HEALTH");
  EXPECT_EQ(health.rfind("OK 1\nready backends=2/2 mode=sharded", 0), 0u)
      << health;

  router.Handle("PREDICT 3 3");
  const std::string stats = router.Handle("STATS");
  EXPECT_NE(stats.find("mode sharded"), std::string::npos);
  EXPECT_NE(stats.find("backend 0 up"), std::string::npos);
  EXPECT_NE(stats.find("backend 1 up"), std::string::npos);
  EXPECT_NE(stats.find("checksum="), std::string::npos);
  EXPECT_NE(stats.find("shard=0/2"), std::string::npos);
  EXPECT_NE(stats.find("shard=1/2"), std::string::npos);
  cluster.Stop();
}

TEST_F(RouterClusterTest, BackendDeathMidBurstLosesNoRequests) {
  Cluster cluster(Options(1, /*sharded=*/false));
  ASSERT_TRUE(cluster.Start().ok());
  RouterService router(&cluster, /*sharded=*/false);
  SnapshotService local(TestSnapshot());

  ASSERT_EQ(router.Handle("PREDICT 1 3"), local.Handle("PREDICT 1 3"));

  // SIGKILL the only backend, then burst queries immediately: each must be
  // answered correctly once the monitor respawns it — the client never sees
  // a transport error or an ERR.
  const pid_t victim = cluster.backend(0).pid();
  ASSERT_GT(victim, 0);
  ASSERT_EQ(kill(victim, SIGKILL), 0);
  for (uint32_t p = 0; p < 8; ++p) {
    const std::string line = "PREDICT " + std::to_string(p) + " 3";
    EXPECT_EQ(router.Handle(line), local.Handle(line)) << line;
  }
  EXPECT_GE(cluster.backend(0).respawns(), 1u);
  EXPECT_GE(router.stats().retries.load(), 1u);
  EXPECT_EQ(router.stats().errors.load(), 0u);
  cluster.Stop();
}

TEST_F(RouterClusterTest, HungBackendFailsWithinRetryBudget) {
  // One thread, as the benchmark runs the router: the request stuck on the
  // stopped shard must not hold the other shard's traffic either.
  SetThreadCount(1);
  ClusterOptions options = Options(2, /*sharded=*/true);
  options.retry_deadline_ms = 1000;
  Cluster cluster(options);
  ASSERT_TRUE(cluster.Start().ok());
  RouterService router(&cluster, /*sharded=*/true);
  SnapshotService local(TestSnapshot());
  {
    TestServer server(ServeOptions(), &router);
    // Protein 0 lives on shard 0, protein 1 on shard 1. Warm shard 0's
    // pooled connection first so the stuck request reuses it.
    Client stuck(server.port());
    stuck.Send("PREDICT 0 3\n");
    EXPECT_EQ(stuck.RecvResponse(), local.Handle("PREDICT 0 3"));

    const pid_t victim = cluster.backend(0).pid();
    ASSERT_EQ(kill(victim, SIGSTOP), 0);
    // SIGSTOP lands asynchronously; wait until every backend thread stopped.
    int wait_status = 0;
    ASSERT_EQ(waitpid(victim, &wait_status, WUNTRACED), victim);
    ASSERT_TRUE(WIFSTOPPED(wait_status));
    const auto start = std::chrono::steady_clock::now();
    stuck.Send("PREDICT 2 3\n");
    // While that request waits on the stopped backend, another connection
    // is answered by the live shard.
    Client other(server.port());
    other.Send("PREDICT 1 3\n");
    EXPECT_EQ(other.RecvResponse(), local.Handle("PREDICT 1 3"));
    const std::string error = stuck.RecvResponse();
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_EQ(error.rfind("ERR DeadlineExceeded backend 0", 0), 0u) << error;
    EXPECT_LT(elapsed, std::chrono::milliseconds(1000 + 2000));
    // The stuck request's connection still serves the live shard.
    stuck.Send("PREDICT 1 3\n");
    EXPECT_EQ(stuck.RecvResponse(), local.Handle("PREDICT 1 3"));
    ASSERT_EQ(kill(victim, SIGCONT), 0);
  }
  SetThreadCount(0);
  cluster.Stop();
}

TEST_F(RouterClusterTest, ReplicatedFailoverWhileBackendDown) {
  Cluster cluster(Options(2, /*sharded=*/false));
  ASSERT_TRUE(cluster.Start().ok());
  RouterService router(&cluster, /*sharded=*/false);
  SnapshotService local(TestSnapshot());

  const pid_t victim = cluster.backend(1).pid();
  ASSERT_GT(victim, 0);
  ASSERT_EQ(kill(victim, SIGKILL), 0);
  for (uint32_t p = 0; p < 16; ++p) {
    const std::string line = "PREDICT " + std::to_string(p) + " 3";
    EXPECT_EQ(router.Handle(line), local.Handle(line)) << line;
  }
  EXPECT_EQ(router.stats().errors.load(), 0u);
  cluster.Stop();
}

TEST_F(RouterClusterTest, RollingReloadKeepsAnswering) {
  Cluster cluster(Options(2, /*sharded=*/true));
  ASSERT_TRUE(cluster.Start().ok());
  RouterService router(&cluster, /*sharded=*/true);
  SnapshotService local(TestSnapshot());

  // Reload onto a copy of the same model under a new path: every backend
  // must swap (respawns bump, snapshot paths change) with zero failed
  // requests before/after.
  const std::string new_base = (*dir_ / "model_v2.lamosnap").string();
  ASSERT_TRUE(WriteSnapshot(TestSnapshot(), new_base).ok());
  for (uint32_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(WriteSnapshot(MakeShard(TestSnapshot(), i, 2),
                              ShardSnapshotPath(new_base, i, 2))
                    .ok());
  }

  const std::string reload_response = router.Handle("RELOAD " + new_base);
  EXPECT_EQ(reload_response.rfind("OK 1\nreloaded backends=2", 0), 0u)
      << reload_response;
  EXPECT_EQ(cluster.reloads(), 1u);
  EXPECT_EQ(cluster.base_snapshot(), new_base);
  EXPECT_GE(cluster.backend(0).respawns(), 1u);
  EXPECT_GE(cluster.backend(1).respawns(), 1u);
  EXPECT_EQ(cluster.backend(0).snapshot_path(),
            ShardSnapshotPath(new_base, 0, 2));

  for (uint32_t p = 0; p < 8; ++p) {
    const std::string line = "PREDICT " + std::to_string(p) + " 3";
    EXPECT_EQ(router.Handle(line), local.Handle(line)) << line;
  }
  EXPECT_EQ(router.stats().errors.load(), 0u);
  cluster.Stop();
}

TEST_F(RouterClusterTest, ReloadRejectsBadSnapshotAndKeepsServing) {
  Cluster cluster(Options(1, /*sharded=*/false));
  ASSERT_TRUE(cluster.Start().ok());
  RouterService router(&cluster, /*sharded=*/false);

  const std::string response =
      router.Handle("RELOAD " + (*dir_ / "missing.lamosnap").string());
  EXPECT_EQ(response.rfind("ERR ", 0), 0u) << response;
  EXPECT_EQ(cluster.reloads(), 0u);
  EXPECT_EQ(cluster.backend(0).respawns(), 0u);
  EXPECT_EQ(router.Handle("PREDICT 2 3").rfind("OK ", 0), 0u);

  // A truncated file must be rejected by pack-validation, untouched cluster.
  const std::string truncated = (*dir_ / "truncated.lamosnap").string();
  {
    std::FILE* f = std::fopen(truncated.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("LAMOSNAPxxxx", 1, 12, f);
    std::fclose(f);
  }
  const std::string rejected = router.Handle("RELOAD " + truncated);
  EXPECT_EQ(rejected.rfind("ERR ", 0), 0u) << rejected;
  EXPECT_EQ(router.Handle("PREDICT 2 3").rfind("OK ", 0), 0u);
  cluster.Stop();
}

TEST_F(RouterClusterTest, ShardedReloadRejectsMismatchedShardCount) {
  Cluster cluster(Options(2, /*sharded=*/true));
  ASSERT_TRUE(cluster.Start().ok());

  // Hand-build shard files whose embedded shard section says 3-of-3 under a
  // 2-backend cluster: Reload must refuse them.
  const std::string bad_base = (*dir_ / "bad_shards.lamosnap").string();
  for (uint32_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(WriteSnapshot(MakeShard(TestSnapshot(), i, 3),
                              ShardSnapshotPath(bad_base, i, 2))
                    .ok());
  }
  const Status status = cluster.Reload(bad_base);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(cluster.reloads(), 0u);
  cluster.Stop();
}

}  // namespace
}  // namespace lamo
