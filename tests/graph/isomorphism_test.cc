#include "graph/isomorphism.h"

#include <algorithm>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "util/random.h"

namespace lamo {
namespace {

SmallGraph Triangle() {
  SmallGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  g.AddEdge(0, 2);
  return g;
}

SmallGraph Path3() {
  SmallGraph g(3);
  g.AddEdge(0, 1);
  g.AddEdge(1, 2);
  return g;
}

Graph MakeK4() {
  GraphBuilder b(4);
  for (VertexId i = 0; i < 4; ++i) {
    for (VertexId j = i + 1; j < 4; ++j) {
      EXPECT_TRUE(b.AddEdge(i, j).ok());
    }
  }
  return b.Build();
}

TEST(IsomorphismTest, TriangleOccurrencesInK4) {
  const Graph k4 = MakeK4();
  // K4 contains C(4,3)=4 triangles as vertex sets.
  const auto occurrences = FindOccurrences(Triangle(), k4);
  EXPECT_EQ(occurrences.size(), 4u);
}

TEST(IsomorphismTest, InducedPathAbsentFromK4) {
  // Every 3-subset of K4 induces a triangle, so no *induced* path exists.
  const Graph k4 = MakeK4();
  EXPECT_EQ(CountOccurrences(Path3(), k4), 0u);
}

TEST(IsomorphismTest, NonInducedPathPresentInK4) {
  const Graph k4 = MakeK4();
  EmbeddingOptions options;
  options.induced = false;
  const auto embeddings = FindEmbeddings(Path3(), k4, options);
  // 4*3*2 = 24 ordered path embeddings.
  EXPECT_EQ(embeddings.size(), 24u);
}

TEST(IsomorphismTest, EmbeddingCountRelatesToAutomorphisms) {
  const Graph k4 = MakeK4();
  // Each triangle vertex set admits |Aut(C3)| = 6 embeddings.
  const auto embeddings = FindEmbeddings(Triangle(), k4);
  EXPECT_EQ(embeddings.size(), 24u);  // 4 occurrences * 6 automorphisms
}

TEST(IsomorphismTest, EmbeddingsMapEdgesToEdges) {
  Rng rng(3);
  const Graph g = ErdosRenyi(30, 60, rng);
  SmallGraph square(4);
  square.AddEdge(0, 1);
  square.AddEdge(1, 2);
  square.AddEdge(2, 3);
  square.AddEdge(3, 0);
  for (const Embedding& e : FindEmbeddings(square, g)) {
    for (uint32_t a = 0; a < 4; ++a) {
      for (uint32_t b = a + 1; b < 4; ++b) {
        EXPECT_EQ(square.HasEdge(a, b), g.HasEdge(e[a], e[b]))
            << "induced embedding must match edges AND non-edges";
      }
    }
  }
}

TEST(IsomorphismTest, MaxEmbeddingsCap) {
  const Graph k4 = MakeK4();
  EmbeddingOptions options;
  options.max_embeddings = 5;
  EXPECT_EQ(FindEmbeddings(Triangle(), k4, options).size(), 5u);
}

TEST(IsomorphismTest, MaxOccurrencesCap) {
  const Graph k4 = MakeK4();
  EXPECT_EQ(FindOccurrences(Triangle(), k4, 2).size(), 2u);
  EXPECT_EQ(CountOccurrences(Triangle(), k4, 2), 2u);
}

TEST(IsomorphismTest, PatternLargerThanTarget) {
  GraphBuilder b(2);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  const Graph tiny = b.Build();
  EXPECT_EQ(CountOccurrences(Triangle(), tiny), 0u);
}

TEST(IsomorphismTest, OccurrenceSetsSortedAndUnique) {
  const Graph k4 = MakeK4();
  const auto occurrences = FindOccurrences(Triangle(), k4);
  std::set<std::vector<VertexId>> unique(occurrences.begin(),
                                         occurrences.end());
  EXPECT_EQ(unique.size(), occurrences.size());
  for (const auto& occ : occurrences) {
    EXPECT_TRUE(std::is_sorted(occ.begin(), occ.end()));
  }
}

TEST(IsomorphismTest, DisconnectedTargetComponents) {
  // Two disjoint triangles: exactly 2 occurrences.
  GraphBuilder b(6);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  ASSERT_TRUE(b.AddEdge(0, 2).ok());
  ASSERT_TRUE(b.AddEdge(3, 4).ok());
  ASSERT_TRUE(b.AddEdge(4, 5).ok());
  ASSERT_TRUE(b.AddEdge(3, 5).ok());
  EXPECT_EQ(CountOccurrences(Triangle(), b.Build()), 2u);
}

// CountOccurrences divides the induced embedding count by |Aut(P)|; the
// set-based FindOccurrences is its oracle, uncapped and at every cap around
// the true count, over random patterns (disconnected ones included) and
// random targets.
TEST(IsomorphismTest, CountMatchesSetBasedOracle) {
  Rng rng(41);
  for (int trial = 0; trial < 60; ++trial) {
    const Graph target = ErdosRenyi(18, 30 + rng.Uniform(25), rng);
    const size_t n = 2 + rng.Uniform(4);
    SmallGraph pattern(n);
    for (uint32_t v = 1; v < n; ++v) {
      if (rng.Bernoulli(0.8)) pattern.AddEdge(v - 1, v);
    }
    for (size_t e = rng.Uniform(n); e > 0; --e) {
      const uint32_t a = static_cast<uint32_t>(rng.Uniform(n));
      const uint32_t b = static_cast<uint32_t>(rng.Uniform(n));
      if (a != b) pattern.AddEdge(a, b);
    }
    const size_t exact = FindOccurrences(pattern, target).size();
    EXPECT_EQ(CountOccurrences(pattern, target), exact) << "trial " << trial;
    for (const size_t cap : {size_t{1}, exact, exact + 1, exact / 2 + 1}) {
      EXPECT_EQ(CountOccurrences(pattern, target, cap), std::min(cap, exact))
          << "trial " << trial << " cap " << cap;
    }
  }
}

}  // namespace
}  // namespace lamo
