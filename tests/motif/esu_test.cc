#include "motif/esu.h"

#include <cmath>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "graph/canonical.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"

namespace lamo {
namespace {

Graph MakeK4() {
  GraphBuilder b(4);
  for (VertexId i = 0; i < 4; ++i) {
    for (VertexId j = i + 1; j < 4; ++j) {
      EXPECT_TRUE(b.AddEdge(i, j).ok());
    }
  }
  return b.Build();
}

Graph MakePath(size_t n) {
  GraphBuilder b(n);
  for (VertexId v = 0; v + 1 < n; ++v) {
    EXPECT_TRUE(b.AddEdge(v, v + 1).ok());
  }
  return b.Build();
}

size_t CountSets(const Graph& g, size_t k) {
  size_t count = 0;
  EnumerateConnectedSubgraphs(g, k, [&](const std::vector<VertexId>&) {
    ++count;
    return true;
  });
  return count;
}

TEST(EsuTest, K4AllTriples) {
  EXPECT_EQ(CountSets(MakeK4(), 3), 4u);  // C(4,3)
}

TEST(EsuTest, PathConnectedSubsets) {
  // A path of n vertices has exactly n-k+1 connected size-k subsets.
  const Graph path = MakePath(10);
  EXPECT_EQ(CountSets(path, 3), 8u);
  EXPECT_EQ(CountSets(path, 5), 6u);
  EXPECT_EQ(CountSets(path, 10), 1u);
}

TEST(EsuTest, EachSetEmittedOnce) {
  Rng rng(21);
  const Graph g = ErdosRenyi(25, 60, rng);
  std::set<std::vector<VertexId>> seen;
  EnumerateConnectedSubgraphs(g, 4, [&](const std::vector<VertexId>& set) {
    EXPECT_TRUE(seen.insert(set).second) << "duplicate vertex set";
    EXPECT_TRUE(std::is_sorted(set.begin(), set.end()));
    return true;
  });
  EXPECT_FALSE(seen.empty());
}

TEST(EsuTest, SetsAreConnected) {
  Rng rng(22);
  const Graph g = ErdosRenyi(20, 40, rng);
  EnumerateConnectedSubgraphs(g, 4, [&](const std::vector<VertexId>& set) {
    EXPECT_TRUE(SmallGraph::InducedSubgraph(g, set).IsConnected());
    return true;
  });
}

TEST(EsuTest, EarlyStop) {
  const Graph k4 = MakeK4();
  size_t count = 0;
  EnumerateConnectedSubgraphs(k4, 3, [&](const std::vector<VertexId>&) {
    return ++count < 2;
  });
  EXPECT_EQ(count, 2u);
}

TEST(EsuTest, DegenerateSizes) {
  const Graph k4 = MakeK4();
  EXPECT_EQ(CountSets(k4, 0), 0u);
  EXPECT_EQ(CountSets(k4, 1), 4u);
  EXPECT_EQ(CountSets(k4, 5), 0u);  // larger than the graph
}

TEST(EsuTest, ClassCountsAgreeWithVf2) {
  // For every class ESU finds, VF2 occurrence counting must agree.
  Rng rng(23);
  const Graph g = ErdosRenyi(22, 45, rng);
  const auto classes = CountSubgraphClasses(g, 4);
  size_t total = 0;
  for (const auto& [code, count] : classes) {
    total += count;
    // Reconstruct one representative by finding a set with this code.
    SmallGraph representative(0);
    EnumerateConnectedSubgraphs(g, 4, [&](const std::vector<VertexId>& set) {
      const SmallGraph sub = SmallGraph::InducedSubgraph(g, set);
      if (CanonicalCode(sub) == code) {
        representative = sub;
        return false;
      }
      return true;
    });
    ASSERT_EQ(representative.num_vertices(), 4u);
    EXPECT_EQ(CountOccurrences(representative, g), count);
  }
  EXPECT_EQ(total, CountSets(g, 4));
}

TEST(RandEsuTest, FullProbabilityMatchesExhaustive) {
  Rng rng(24);
  const Graph g = ErdosRenyi(20, 45, rng);
  const auto exact = CountSubgraphClasses(g, 3);
  Rng sample_rng(25);
  const auto sampled =
      SampleSubgraphClasses(g, 3, {1.0, 1.0, 1.0}, sample_rng);
  ASSERT_EQ(sampled.estimated_counts.size(), exact.size());
  for (const auto& [code, count] : exact) {
    EXPECT_NEAR(sampled.estimated_counts.at(code),
                static_cast<double>(count), 1e-9);
  }
}

TEST(RandEsuTest, PartialSamplingUnbiasedish) {
  Rng rng(26);
  const Graph g = BarabasiAlbert(150, 3, rng);
  const auto exact = CountSubgraphClasses(g, 3);
  double exact_total = 0;
  for (const auto& [code, count] : exact) exact_total += count;

  // Average several sampling runs; the estimate of the total should land
  // within ~15% of the truth.
  double estimate_sum = 0.0;
  const int runs = 8;
  for (int r = 0; r < runs; ++r) {
    Rng sample_rng(100 + r);
    const auto sampled =
        SampleSubgraphClasses(g, 3, {1.0, 0.7, 0.7}, sample_rng);
    estimate_sum += sampled.estimated_total;
    EXPECT_LT(sampled.samples, static_cast<size_t>(exact_total));
  }
  EXPECT_NEAR(estimate_sum / runs, exact_total, exact_total * 0.15);
}

TEST(RandEsuTest, PinnedSamplesAndDrawSequence) {
  // RAND-ESU output for fixed (graph, k, probabilities, seed), recorded
  // from the original pointer-chasing walk: per-class sample counts in
  // canonical-code order, and the generator's next draw afterwards — which
  // pins the number of coin flips (once per root, once per extension
  // candidate, none where p >= 1). Moving the walk must leave all of it
  // unchanged.
  struct Pin {
    size_t k;
    uint64_t seed;
    size_t samples;
    std::vector<size_t> per_class;
    uint64_t next_draw;
  };
  const std::vector<Pin> pins = {
      {3, 1, 501, {466, 35}, 0x954ee2d61191e4f1ULL},
      {3, 2, 456, {436, 20}, 0x9ef08b8976f62264ULL},
      {3, 3, 471, {443, 28}, 0xaa3428f5dfd4eb3bULL},
      {4, 1, 3203, {1087, 460, 1567, 52, 36, 1}, 0x0b10e9c6a7225bf0ULL},
      {4, 2, 2864, {1029, 341, 1417, 41, 36}, 0x0dfc8858bd0f2fc2ULL},
      {4, 3, 2303, {707, 265, 1267, 26, 36, 2}, 0xc5b12e8d9cf4d350ULL},
      {5, 1, 13631,
       {1439, 1041, 378, 533, 66, 4985, 1165, 8, 16, 16, 2917, 204, 64, 3,
        599, 40, 92, 59, 6},
       0xa339ba15714762feULL},
      {5, 2, 14571,
       {1755, 1158, 329, 531, 1, 5462, 1219, 14, 16, 1, 2996, 181, 45, 640,
        47, 96, 72, 7, 1},
       0xf35f689913fa77f0ULL},
      {5, 3, 15388,
       {1752, 1194, 439, 505, 54, 5678, 1349, 16, 26, 25, 3064, 251, 72, 704,
        64, 122, 61, 10, 2},
       0xbf3628dd7d22f1e1ULL},
  };
  const std::map<size_t, std::vector<double>> probabilities = {
      {3, {1.0, 0.8, 0.5}},
      {4, {0.9, 0.8, 0.7, 0.6}},
      {5, {1.0, 0.9, 0.7, 0.6, 0.5}}};
  Rng graph_rng(41);
  const Graph g = BarabasiAlbert(60, 3, graph_rng);
  for (const Pin& pin : pins) {
    SCOPED_TRACE(testing::Message() << "k=" << pin.k << " seed=" << pin.seed);
    const std::vector<double>& p = probabilities.at(pin.k);
    double inverse = 1.0;
    for (const double x : p) inverse /= x;
    Rng rng(pin.seed);
    const SampledSubgraphCounts sampled =
        SampleSubgraphClasses(g, pin.k, p, rng);
    EXPECT_EQ(sampled.samples, pin.samples);
    EXPECT_NEAR(sampled.estimated_total,
                static_cast<double>(pin.samples) * inverse, 1e-6);
    std::vector<size_t> per_class;
    for (const auto& [code, estimate] : sampled.estimated_counts) {
      per_class.push_back(
          static_cast<size_t>(std::llround(estimate / inverse)));
    }
    EXPECT_EQ(per_class, pin.per_class);
    EXPECT_EQ(rng.Next64(), pin.next_draw);
  }
}

}  // namespace
}  // namespace lamo
