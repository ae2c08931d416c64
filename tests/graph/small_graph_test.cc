#include "graph/small_graph.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace lamo {
namespace {

SmallGraph Cycle(size_t n) {
  SmallGraph g(n);
  for (uint32_t i = 0; i < n; ++i) {
    g.AddEdge(i, static_cast<uint32_t>((i + 1) % n));
  }
  return g;
}

TEST(SmallGraphTest, AddRemoveEdges) {
  SmallGraph g(4);
  EXPECT_EQ(g.num_edges(), 0u);
  g.AddEdge(0, 1);
  g.AddEdge(2, 3);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_FALSE(g.HasEdge(0, 2));
  EXPECT_EQ(g.num_edges(), 2u);
  g.RemoveEdge(0, 1);
  EXPECT_FALSE(g.HasEdge(0, 1));
  EXPECT_EQ(g.num_edges(), 1u);
}

TEST(SmallGraphTest, SelfLoopIgnored) {
  SmallGraph g(3);
  g.AddEdge(1, 1);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_FALSE(g.HasEdge(1, 1));
}

TEST(SmallGraphTest, FromEdgesValid) {
  auto g = SmallGraph::FromEdges(3, {{0, 1}, {1, 2}});
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(g->num_edges(), 2u);
}

TEST(SmallGraphTest, FromEdgesRejectsBadInput) {
  EXPECT_FALSE(SmallGraph::FromEdges(3, {{0, 3}}).ok());
  EXPECT_FALSE(SmallGraph::FromEdges(3, {{1, 1}}).ok());
  EXPECT_FALSE(SmallGraph::FromEdges(65, {}).ok());
}

TEST(SmallGraphTest, DegreesAndNeighbors) {
  const SmallGraph g = Cycle(5);
  for (uint32_t v = 0; v < 5; ++v) {
    EXPECT_EQ(g.Degree(v), 2u);
  }
  EXPECT_EQ(g.Neighbors(0), (std::vector<uint32_t>{1, 4}));
}

TEST(SmallGraphTest, EdgesLexicographic) {
  const SmallGraph g = Cycle(4);
  const auto edges = g.Edges();
  ASSERT_EQ(edges.size(), 4u);
  EXPECT_EQ(edges[0], std::make_pair(0u, 1u));
  EXPECT_EQ(edges[1], std::make_pair(0u, 3u));
  EXPECT_EQ(edges[2], std::make_pair(1u, 2u));
  EXPECT_EQ(edges[3], std::make_pair(2u, 3u));
}

TEST(SmallGraphTest, Connectivity) {
  EXPECT_TRUE(Cycle(6).IsConnected());
  SmallGraph disconnected(4);
  disconnected.AddEdge(0, 1);
  disconnected.AddEdge(2, 3);
  EXPECT_FALSE(disconnected.IsConnected());
  EXPECT_TRUE(SmallGraph(1).IsConnected());
  EXPECT_TRUE(SmallGraph(0).IsConnected());
  SmallGraph isolated(2);
  EXPECT_FALSE(isolated.IsConnected());
}

TEST(SmallGraphTest, PermutedRelabels) {
  // Path 0-1-2; permutation [2,1,0] reverses it (still a path).
  SmallGraph path(3);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  const SmallGraph reversed = path.Permuted({2, 1, 0});
  EXPECT_TRUE(reversed.HasEdge(0, 1));
  EXPECT_TRUE(reversed.HasEdge(1, 2));
  EXPECT_FALSE(reversed.HasEdge(0, 2));

  // Permutation [1,2,0]: result vertex i is original perm[i].
  // Result edge (i,j) iff original has (perm[i], perm[j]).
  const SmallGraph rotated = path.Permuted({1, 2, 0});
  EXPECT_TRUE(rotated.HasEdge(0, 1));   // orig (1,2)
  EXPECT_TRUE(rotated.HasEdge(0, 2));   // orig (1,0)
  EXPECT_FALSE(rotated.HasEdge(1, 2));  // orig (2,0)
}

TEST(SmallGraphTest, InducedSubgraph) {
  GraphBuilder b(5);
  ASSERT_TRUE(b.AddEdge(0, 1).ok());
  ASSERT_TRUE(b.AddEdge(1, 2).ok());
  ASSERT_TRUE(b.AddEdge(2, 3).ok());
  ASSERT_TRUE(b.AddEdge(3, 4).ok());
  ASSERT_TRUE(b.AddEdge(0, 4).ok());
  const Graph g = b.Build();
  const SmallGraph sub = SmallGraph::InducedSubgraph(g, {0, 1, 2});
  EXPECT_EQ(sub.num_vertices(), 3u);
  EXPECT_TRUE(sub.HasEdge(0, 1));
  EXPECT_TRUE(sub.HasEdge(1, 2));
  EXPECT_FALSE(sub.HasEdge(0, 2));
}

TEST(SmallGraphTest, AdjacencyCodeDistinguishes) {
  SmallGraph path(3);
  path.AddEdge(0, 1);
  path.AddEdge(1, 2);
  SmallGraph other(3);
  other.AddEdge(0, 1);
  other.AddEdge(0, 2);
  EXPECT_NE(path.AdjacencyCode(), other.AdjacencyCode());
  EXPECT_EQ(path.AdjacencyCode(), path.AdjacencyCode());
}

TEST(SmallGraphTest, EqualityStructural) {
  EXPECT_TRUE(Cycle(4) == Cycle(4));
  EXPECT_FALSE(Cycle(4) == Cycle(5));
  SmallGraph a = Cycle(4);
  SmallGraph b = Cycle(4);
  b.AddEdge(0, 2);
  EXPECT_FALSE(a == b);
}

TEST(SmallGraphTest, MaxVerticesBoundary) {
  SmallGraph g(64);
  g.AddEdge(0, 63);
  EXPECT_TRUE(g.HasEdge(63, 0));
  EXPECT_EQ(g.Degree(63), 1u);
}

TEST(SmallGraphTest, EdgesAtMaxVerticesListEachEdgeOnce) {
  // Vertex 63 has no higher neighbor; its row must contribute no edge.
  SmallGraph g(64);
  g.AddEdge(0, 63);
  g.AddEdge(62, 63);
  const std::vector<std::pair<uint32_t, uint32_t>> expected = {{0, 63},
                                                               {62, 63}};
  EXPECT_EQ(g.Edges(), expected);
}

}  // namespace
}  // namespace lamo
