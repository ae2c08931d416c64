// Wire-protocol tests: request parsing, response framing, cache keys, the
// SnapshotService request handlers (including byte-identity between the
// PREDICT payload and the offline prediction formatter), and the stream
// server's ordered, deterministic output.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.h"
#include "predict/gds.h"
#include "predict/labeled_motif_predictor.h"
#include "predict/role_similarity.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/update.h"
#include "serve_test_util.h"

namespace lamo {
namespace {

// ---- ParseRequest ----------------------------------------------------------

TEST(ParseRequestTest, PredictWithDefaultK) {
  auto request = ParseRequest("PREDICT 17");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->type, RequestType::kPredict);
  EXPECT_EQ(request->protein, 17u);
  EXPECT_EQ(request->top_k, kDefaultPredictTopK);
}

TEST(ParseRequestTest, PredictWithExplicitK) {
  auto request = ParseRequest("PREDICT 17 5");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->top_k, 5u);
}

TEST(ParseRequestTest, ToleratesExtraWhitespaceAndCr) {
  auto request = ParseRequest("  PREDICT \t 17   5 \r");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->protein, 17u);
  EXPECT_EQ(request->top_k, 5u);
}

TEST(ParseRequestTest, OtherVerbs) {
  auto motifs = ParseRequest("MOTIFS 3");
  ASSERT_TRUE(motifs.ok());
  EXPECT_EQ(motifs->type, RequestType::kMotifs);
  EXPECT_EQ(motifs->protein, 3u);

  auto term = ParseRequest("TERMINFO T0005");
  ASSERT_TRUE(term.ok());
  EXPECT_EQ(term->type, RequestType::kTermInfo);
  EXPECT_EQ(term->term, "T0005");

  EXPECT_EQ(ParseRequest("HEALTH")->type, RequestType::kHealth);
  EXPECT_EQ(ParseRequest("STATS")->type, RequestType::kStats);
  EXPECT_EQ(ParseRequest("METRICS")->type, RequestType::kMetrics);
}

TEST(ParseRequestTest, RequestIdTokenIsStrippedIntoId) {
  auto request = ParseRequest("#7 PREDICT 3");
  ASSERT_TRUE(request.ok());
  EXPECT_EQ(request->id, 7u);
  EXPECT_EQ(request->type, RequestType::kPredict);
  EXPECT_EQ(request->protein, 3u);
  // No token: id stays 0 (= none).
  EXPECT_EQ(ParseRequest("PREDICT 3")->id, 0u);
  // The token rides any verb, whitespace included.
  auto stats = ParseRequest("  #42 \t STATS \r");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->id, 42u);
  EXPECT_EQ(stats->type, RequestType::kStats);
}

TEST(ParseRequestTest, MalformedRequestIdsAreRejected) {
  EXPECT_FALSE(ParseRequest("#x PREDICT 3").ok());
  EXPECT_FALSE(ParseRequest("# PREDICT 3").ok());
  EXPECT_FALSE(ParseRequest("#7").ok());  // an id alone is not a request
}

TEST(ParseRequestTest, Rejections) {
  EXPECT_FALSE(ParseRequest("").ok());
  EXPECT_FALSE(ParseRequest("   \r").ok());
  EXPECT_FALSE(ParseRequest("BOGUS 1").ok());
  EXPECT_FALSE(ParseRequest("predict 1").ok());  // verbs are case-sensitive
  EXPECT_FALSE(ParseRequest("PREDICT").ok());
  EXPECT_FALSE(ParseRequest("PREDICT x").ok());
  EXPECT_FALSE(ParseRequest("PREDICT 1 0").ok());   // k must be positive
  EXPECT_FALSE(ParseRequest("PREDICT 1 2 3").ok());
  EXPECT_FALSE(ParseRequest("MOTIFS").ok());
  EXPECT_FALSE(ParseRequest("MOTIFS 1 2").ok());
  EXPECT_FALSE(ParseRequest("TERMINFO").ok());
  EXPECT_FALSE(ParseRequest("HEALTH now").ok());
  EXPECT_FALSE(ParseRequest("STATS all").ok());
  EXPECT_FALSE(ParseRequest("METRICS all").ok());
}

// ---- framing + cache keys --------------------------------------------------

TEST(FramingTest, OkResponse) {
  EXPECT_EQ(FormatOkResponse({}), "OK 0\n");
  EXPECT_EQ(FormatOkResponse({"a", "b"}), "OK 2\na\nb\n");
}

TEST(FramingTest, ErrorResponseIsOneLine) {
  const std::string response =
      FormatErrorResponse(Status::InvalidArgument("multi\nline\nmessage"));
  EXPECT_EQ(response, "ERR InvalidArgument multi line message\n");
}

TEST(CacheKeyTest, EquivalentSpellingsShareOneKey) {
  const auto a = ParseRequest("PREDICT 5");
  const auto b = ParseRequest(" PREDICT \t 5  3 \r");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(CacheKey(*a), CacheKey(*b));
  const auto c = ParseRequest("PREDICT 5 4");
  ASSERT_TRUE(c.ok());
  EXPECT_NE(CacheKey(*a), CacheKey(*c));
}

TEST(CacheKeyTest, OnlyPureQueriesAreCacheable) {
  EXPECT_TRUE(IsCacheable(RequestType::kPredict));
  EXPECT_TRUE(IsCacheable(RequestType::kMotifs));
  EXPECT_TRUE(IsCacheable(RequestType::kTermInfo));
  EXPECT_FALSE(IsCacheable(RequestType::kHealth));
  EXPECT_FALSE(IsCacheable(RequestType::kStats));
  EXPECT_FALSE(IsCacheable(RequestType::kMetrics));
}

TEST(CacheKeyTest, RequestIdNeverChangesTheKey) {
  const auto plain = ParseRequest("PREDICT 5");
  const auto tagged = ParseRequest("#99 PREDICT 5");
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(tagged.ok());
  EXPECT_EQ(CacheKey(*plain), CacheKey(*tagged))
      << "ids must not fragment the response cache";
}

// ---- SnapshotService -------------------------------------------------------

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : service_(TestSnapshot()) {}
  SnapshotService service_;
};

TEST_F(ServiceTest, HealthReportsSnapshotIdentity) {
  const std::string response = service_.Handle("HEALTH");
  EXPECT_EQ(response.rfind("OK 1\nready proteins=", 0), 0u) << response;
}

TEST_F(ServiceTest, PredictMatchesOfflineFormatter) {
  const Snapshot& snapshot = service_.snapshot();
  // Rebuild the offline context + predictor exactly as `lamo predict` does
  // and compare payloads for every protein: served answers must be
  // byte-identical to offline ones.
  PredictionContext context;
  context.ppi = &snapshot.graph;
  context.categories = snapshot.categories;
  context.protein_categories = snapshot.protein_categories;
  const LabeledMotifPredictor predictor(context, snapshot.ontology,
                                        snapshot.motifs);
  for (ProteinId p = 0; p < snapshot.graph.num_vertices(); ++p) {
    const auto lines = PredictionOutputLines(context, snapshot.ontology,
                                             predictor, p, 3);
    EXPECT_EQ(service_.Handle("PREDICT " + std::to_string(p)),
              FormatOkResponse(lines))
        << "protein " << p;
  }
}

// An edge inside a stored motif occurrence, so deleting it moves motif state.
std::pair<VertexId, VertexId> OccurrenceEdge(const Snapshot& snapshot) {
  for (const LabeledMotif& motif : snapshot.motifs) {
    for (const std::span<const VertexId> occ : motif.occurrences) {
      for (size_t i = 0; i < occ.size(); ++i) {
        for (size_t j = i + 1; j < occ.size(); ++j) {
          if (snapshot.graph.HasEdge(occ[i], occ[j])) return {occ[i], occ[j]};
        }
      }
    }
  }
  ADD_FAILURE() << "no motif occurrence has an edge";
  return {0, 0};
}

TEST(ShardServiceTest, PredictMatchesOfflineFormatterOnEveryShard) {
  // The sharded twin of PredictMatchesOfflineFormatter: each shard's lms
  // reads the shard's own site rows, and for every protein it owns it must
  // answer byte-identically to offline lms over the full snapshot — before
  // and after a live DELEDGE/ADDEDGE pair.
  Snapshot full = TestSnapshot();
  constexpr uint32_t kShards = 2;
  std::vector<std::unique_ptr<SnapshotService>> shards;
  for (uint32_t i = 0; i < kShards; ++i) {
    shards.push_back(
        std::make_unique<SnapshotService>(MakeShard(full, i, kShards)));
  }
  const auto check = [&](const std::string& when) {
    PredictionContext context;
    context.ppi = &full.graph;
    context.categories = full.categories;
    context.protein_categories = full.protein_categories;
    const LabeledMotifPredictor predictor(context, full.ontology, full.motifs);
    for (ProteinId p = 0; p < full.graph.num_vertices(); ++p) {
      const auto lines =
          PredictionOutputLines(context, full.ontology, predictor, p, 3);
      EXPECT_EQ(shards[p % kShards]->Handle("PREDICT " + std::to_string(p)),
                FormatOkResponse(lines))
          << when << ": protein " << p;
    }
  };
  check("as packed");

  UpdateEngine full_engine(&full);
  const auto [u, v] = OccurrenceEdge(full);
  for (const bool add : {false, true}) {
    UpdateResult result;
    ASSERT_TRUE(full_engine.Apply(add, u, v, &result).ok());
    ASSERT_GT(result.occ_added + result.occ_removed, 0u);
    const std::string line = std::string(add ? "ADDEDGE " : "DELEDGE ") +
                             std::to_string(u) + " " + std::to_string(v);
    for (const auto& shard : shards) {
      ASSERT_EQ(shard->Handle(line).rfind("OK", 0), 0u) << line;
    }
    check("after " + line);
  }
}

TEST_F(ServiceTest, UsePredictorSwapsBackendAndMatchesOffline) {
  EXPECT_EQ(service_.predictor_name(), "lms");
  ASSERT_TRUE(service_.UsePredictor("gds").ok());
  EXPECT_EQ(service_.predictor_name(), "gds");
  EXPECT_NE(service_.Handle("STATS").find("predictor gds"),
            std::string::npos);

  // Served answers under the swapped backend are byte-identical to an
  // offline GdsPredictor built from the snapshot's precomputed matrices.
  const Snapshot& snapshot = service_.snapshot();
  PredictionContext context;
  context.ppi = &snapshot.graph;
  context.categories = snapshot.categories;
  context.protein_categories = snapshot.protein_categories;
  const GdsPredictor gds(context, snapshot.gds_signatures);
  for (ProteinId p = 0; p < snapshot.graph.num_vertices(); p += 17) {
    EXPECT_EQ(service_.Handle("PREDICT " + std::to_string(p)),
              FormatOkResponse(
                  PredictionOutputLines(context, snapshot.ontology, gds, p, 3)))
        << "protein " << p;
  }

  // And the role backend swaps in the same way.
  ASSERT_TRUE(service_.UsePredictor("role").ok());
  EXPECT_EQ(service_.predictor_name(), "role");
  EXPECT_NE(service_.Handle("STATS").find("predictor role"),
            std::string::npos);
}

TEST_F(ServiceTest, UsePredictorRejectsUnknownName) {
  const Status status = service_.UsePredictor("nope");
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(service_.predictor_name(), "lms");  // active backend unchanged
}

TEST_F(ServiceTest, MotifsListsSites) {
  const Snapshot& snapshot = service_.snapshot();
  ProteinId covered = snapshot.graph.num_vertices();
  for (ProteinId p = 0; p < snapshot.sites.size(); ++p) {
    if (!snapshot.sites[p].empty()) {
      covered = p;
      break;
    }
  }
  ASSERT_LT(covered, snapshot.graph.num_vertices())
      << "fixture must cover at least one protein";
  const std::string response =
      service_.Handle("MOTIFS " + std::to_string(covered));
  EXPECT_EQ(response.rfind("OK ", 0), 0u) << response;
  EXPECT_NE(response.find("motif "), std::string::npos) << response;
}

TEST_F(ServiceTest, TermInfoKnownAndUnknown) {
  const std::string name = service_.snapshot().ontology.TermName(0);
  const std::string response = service_.Handle("TERMINFO " + name);
  EXPECT_EQ(response.rfind("OK ", 0), 0u) << response;
  EXPECT_NE(response.find("term " + name), std::string::npos) << response;

  const std::string missing = service_.Handle("TERMINFO NO_SUCH_TERM");
  EXPECT_EQ(missing.rfind("ERR NotFound", 0), 0u) << missing;
}

TEST_F(ServiceTest, ErrorsAreStatusLinesNotCrashes) {
  EXPECT_EQ(service_.Handle("BOGUS").rfind("ERR InvalidArgument", 0), 0u);
  EXPECT_EQ(service_.Handle("PREDICT 999999999").rfind("ERR ", 0), 0u);
  EXPECT_EQ(service_.Handle("MOTIFS 999999999").rfind("ERR ", 0), 0u);
  EXPECT_EQ(service_.Handle("").rfind("ERR ", 0), 0u);
}

TEST_F(ServiceTest, StatsTrackRequestsAndCache) {
  service_.Handle("PREDICT 1");
  service_.Handle("PREDICT 1");      // cache hit
  service_.Handle("PREDICT 1 3");    // same canonical key: another hit
  service_.Handle("BOGUS");
  EXPECT_EQ(service_.stats().requests.load(), 4u);
  EXPECT_EQ(service_.stats().errors.load(), 1u);
  EXPECT_EQ(service_.stats().cache_misses.load(), 1u);
  EXPECT_EQ(service_.stats().cache_hits.load(), 2u);
  EXPECT_EQ(service_.cache_entries(), 1u);

  const std::string stats = service_.Handle("STATS");
  EXPECT_NE(stats.find("requests 5"), std::string::npos) << stats;
  EXPECT_NE(stats.find("errors 1"), std::string::npos) << stats;
  EXPECT_NE(stats.find("uptime_s "), std::string::npos) << stats;
  EXPECT_NE(stats.find("start_time "), std::string::npos) << stats;
}

TEST_F(ServiceTest, MetricsRendersExpositionEvenWithoutSink) {
  // No obs sink installed (unit-test default): the scrape still answers OK
  // with the uptime gauges instead of erroring, so probes never flap.
  ASSERT_EQ(GetObsSink(), nullptr);
  const std::string response = service_.Handle("METRICS");
  EXPECT_EQ(response.rfind("OK ", 0), 0u) << response;
  EXPECT_NE(response.find("# TYPE lamo_uptime_seconds gauge"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("lamo_start_time_seconds"), std::string::npos)
      << response;
}

TEST_F(ServiceTest, MetricsReflectsLiveCounters) {
  ObsSink sink;
  SetObsSink(&sink);
  service_.Handle("PREDICT 1");
  service_.Handle("BOGUS");
  const std::string response = service_.Handle("METRICS");
  SetObsSink(nullptr);
  EXPECT_EQ(response.rfind("OK ", 0), 0u) << response;
  // 3 requests at scrape time (the METRICS request counts itself).
  EXPECT_NE(response.find("lamo_serve_requests_total 3"), std::string::npos)
      << response;
  EXPECT_NE(response.find("lamo_serve_errors_total 1"), std::string::npos)
      << response;
  // The request_us histogram is present with its cumulative +Inf bucket.
  EXPECT_NE(response.find("# TYPE lamo_serve_request_us histogram"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("lamo_serve_request_us_bucket{le=\"+Inf\"}"),
            std::string::npos)
      << response;
}

TEST_F(ServiceTest, CacheOffNeverChangesResponses) {
  SnapshotService uncached(TestSnapshot(), /*cache_capacity=*/0);
  for (const char* request :
       {"PREDICT 1", "PREDICT 1", "MOTIFS 2", "TERMINFO T0001", "HEALTH"}) {
    EXPECT_EQ(uncached.Handle(request), service_.Handle(request)) << request;
  }
  EXPECT_EQ(uncached.stats().cache_hits.load(), 0u);
  EXPECT_EQ(uncached.cache_entries(), 0u);
}

// ---- stream server ---------------------------------------------------------

TEST(StreamServerTest, AnswersInOrderAndDeterministically) {
  const std::string script =
      "HEALTH\nPREDICT 0\nMOTIFS 1\nBOGUS\nPREDICT 0\n";
  std::string first;
  for (int run = 0; run < 2; ++run) {
    SnapshotService service(TestSnapshot());
    std::istringstream in(script);
    std::ostringstream out;
    ASSERT_TRUE(RunStreamServer(&service, in, out).ok());
    // Responses appear in request order: reply 1 is the HEALTH banner and
    // the BOGUS error precedes the final PREDICT payload.
    const std::string text = out.str();
    EXPECT_EQ(text.rfind("OK 1\nready proteins=", 0), 0u);
    EXPECT_NE(text.find("ERR InvalidArgument"), std::string::npos);
    EXPECT_EQ(service.stats().requests.load(), 5u);
    if (run == 0) {
      first = text;
    } else {
      EXPECT_EQ(text, first) << "stream output must be deterministic";
    }
  }
}

TEST(StreamServerTest, EmptyInputIsFine) {
  SnapshotService service(TestSnapshot());
  std::istringstream in("");
  std::ostringstream out;
  ASSERT_TRUE(RunStreamServer(&service, in, out).ok());
  EXPECT_TRUE(out.str().empty());
  EXPECT_EQ(service.stats().requests.load(), 0u);
}

}  // namespace
}  // namespace lamo
