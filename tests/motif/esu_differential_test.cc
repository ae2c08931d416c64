// Differential tests for the ESU engine (motif/esu_engine.h), two layers
// deep:
//
//  1. ESU versus a naive brute-force connected-subgraph enumerator. The
//     brute force walks every C(n, k) vertex subset and keeps the connected
//     ones, so it is obviously correct (and hopeless beyond tiny n); ESU
//     must produce exactly the same multiset of canonical classes on random
//     graphs of every density.
//  2. The engine's own emission order. The dense-bitset path and the sparse
//     CSR-only fallback must emit the exact same *sequence*, every set
//     ascending; concatenating root-range runs must reproduce the full-range
//     sequence; and an aborting callback must see a prefix of it. The
//     pipelines' byte-identical-output guarantee (any thread count, any
//     index layout) rests on this order.
#include <algorithm>
#include <functional>
#include <map>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "graph/canonical.h"
#include "graph/generators.h"
#include "graph/graph_index.h"
#include "motif/canon_cache.h"
#include "motif/esu.h"
#include "motif/esu_engine.h"
#include "util/random.h"

namespace lamo {
namespace {

using ClassCounts = std::map<std::vector<uint8_t>, size_t>;

// All connected induced size-k subgraphs by subset enumeration.
ClassCounts BruteForceClasses(const Graph& g, size_t k) {
  ClassCounts counts;
  const size_t n = g.num_vertices();
  if (k == 0 || k > n) return counts;
  std::vector<VertexId> subset(k);
  // Lexicographic k-combinations of [0, n).
  for (size_t i = 0; i < k; ++i) subset[i] = static_cast<VertexId>(i);
  while (true) {
    const SmallGraph sub = SmallGraph::InducedSubgraph(g, subset);
    if (sub.IsConnected()) ++counts[CanonicalCode(sub)];
    // Advance: find the rightmost position that can still move up.
    size_t pos = k;
    while (pos > 0 && subset[pos - 1] == n - k + pos - 1) --pos;
    if (pos == 0) break;
    ++subset[pos - 1];
    for (size_t i = pos; i < k; ++i) subset[i] = subset[i - 1] + 1;
  }
  return counts;
}

// The same multiset via ESU, both through the raw enumerator and through
// the parallel class-counting pipeline.
ClassCounts EsuClasses(const Graph& g, size_t k) {
  ClassCounts counts;
  EnumerateConnectedSubgraphs(g, k, [&](const std::vector<VertexId>& set) {
    ++counts[CanonicalCode(SmallGraph::InducedSubgraph(g, set))];
    return true;
  });
  return counts;
}

TEST(EsuDifferentialTest, MatchesBruteForceOnRandomGraphs) {
  // 30 random graphs, n <= 12, densities from near-empty to near-complete,
  // every k in 3..5 — identical canonical-class multisets throughout.
  Rng rng(20070406);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 4 + rng.Uniform(9);  // 4..12
    const size_t max_edges = n * (n - 1) / 2;
    const size_t m = rng.Uniform(max_edges + 1);
    Rng graph_rng(rng.Next64());
    const Graph g = ErdosRenyi(n, m, graph_rng);
    for (size_t k = 3; k <= 5 && k <= n; ++k) {
      const ClassCounts expected = BruteForceClasses(g, k);
      SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                      << " m=" << m << " k=" << k);
      EXPECT_EQ(EsuClasses(g, k), expected);
      EXPECT_EQ(CountSubgraphClasses(g, k), expected);
    }
  }
}

using SetSequence = std::vector<std::vector<VertexId>>;

// The exact emission sequence of the engine over roots [lo, hi) of a
// prebuilt index (dense bitset or, with dense_vertex_limit = 0, the sparse
// CSR fallback).
SetSequence RootRangeSequence(const GraphIndex& index, size_t k, VertexId lo,
                              VertexId hi) {
  SetSequence sets;
  esu_internal::RunEsu(index, k, lo, hi,
                       [&](const VertexId* set, size_t size) {
                         sets.emplace_back(set, set + size);
                         return true;
                       });
  return sets;
}

SetSequence IndexSequence(const GraphIndex& index, size_t k) {
  return RootRangeSequence(index, k, 0,
                           static_cast<VertexId>(index.num_vertices()));
}

// A graph from one of several structural families, cycling with `trial` so
// the battery covers shapes random edge counts rarely hit: stars (one hub,
// maximal degree skew), cliques (densest case), disjoint unions
// (disconnected graphs), and near-empty graphs, with Erdos-Renyi across the
// full density range in between.
Graph TrialGraph(int trial, size_t n, Rng& rng) {
  GraphBuilder b(n);
  switch (trial % 8) {
    case 0:  // star: vertex 0 adjacent to everyone
      for (VertexId v = 1; v < n; ++v) EXPECT_TRUE(b.AddEdge(0, v).ok());
      return b.Build();
    case 1:  // clique
      for (VertexId u = 0; u < n; ++u) {
        for (VertexId v = u + 1; v < n; ++v) {
          EXPECT_TRUE(b.AddEdge(u, v).ok());
        }
      }
      return b.Build();
    case 2: {  // two disjoint cliques (disconnected)
      const VertexId half = static_cast<VertexId>(n / 2);
      for (VertexId u = 0; u < n; ++u) {
        for (VertexId v = u + 1; v < n; ++v) {
          if ((u < half) == (v < half)) {
            EXPECT_TRUE(b.AddEdge(u, v).ok());
          }
        }
      }
      return b.Build();
    }
    case 3: {  // path plus isolated vertices (sparse, disconnected)
      const VertexId end = static_cast<VertexId>(n - n / 3);
      for (VertexId v = 1; v < end; ++v) {
        EXPECT_TRUE(b.AddEdge(v - 1, v).ok());
      }
      return b.Build();
    }
    default: {  // Erdos-Renyi across the density range
      const size_t max_edges = n * (n - 1) / 2;
      Rng graph_rng(rng.Next64());
      return ErdosRenyi(n, rng.Uniform(max_edges + 1), graph_rng);
    }
  }
}

TEST(EsuDifferentialTest, DenseAndSparseEnginesAgreeOn120Graphs) {
  // 120 graphs (stars, cliques, disjoint unions, paths, random at all
  // densities), n <= 14, every k in 3..5. The dense-bitset engine and the
  // forced-sparse engine must emit the *same sequence* of ascending vertex
  // sets, one root at a time in root order; the class-counting pipeline
  // (with and without a shared canonicalization table) and the brute force
  // must agree on the multiset.
  Rng rng(20070715);
  for (int trial = 0; trial < 120; ++trial) {
    const size_t n = 4 + rng.Uniform(11);  // 4..14
    const Graph g = TrialGraph(trial, n, rng);
    const GraphIndex dense_index(g);
    const GraphIndex sparse_index(g, 0);
    ASSERT_TRUE(dense_index.dense());
    ASSERT_FALSE(sparse_index.dense());
    for (size_t k = 3; k <= 5 && k <= n; ++k) {
      SCOPED_TRACE(testing::Message()
                   << "trial " << trial << " n=" << n
                   << " m=" << g.num_edges() << " k=" << k);
      const SetSequence dense = IndexSequence(dense_index, k);
      EXPECT_EQ(IndexSequence(sparse_index, k), dense);
      SetSequence by_root;
      for (VertexId root = 0; root < n; ++root) {
        for (std::vector<VertexId>& set :
             RootRangeSequence(sparse_index, k, root, root + 1)) {
          EXPECT_EQ(set.front(), root) << "set not rooted at its minimum";
          by_root.push_back(std::move(set));
        }
      }
      EXPECT_EQ(by_root, dense);
      for (const std::vector<VertexId>& set : dense) {
        EXPECT_TRUE(std::adjacent_find(set.begin(), set.end(),
                                       std::greater_equal<VertexId>()) ==
                    set.end())
            << "set not strictly ascending";
      }

      const ClassCounts expected = BruteForceClasses(g, k);
      EXPECT_EQ(CountSubgraphClasses(g, k), expected);
      SharedCanonCache shared(k);
      EXPECT_EQ(CountSubgraphClasses(g, k, &shared), expected);
    }
  }
}

TEST(EsuDifferentialTest, IndexEngineHonorsCallbackAbort) {
  // Returning false must stop the enumeration immediately on both engine
  // paths: the callback sees exactly a prefix of the full sequence.
  Rng rng(11);
  const Graph g = ErdosRenyi(12, 40, rng);
  const SetSequence all = IndexSequence(GraphIndex(g), 4);
  ASSERT_GT(all.size(), 5u);
  for (const size_t limit : {size_t{1}, size_t{5}, all.size() - 1}) {
    for (const size_t dense_limit : {GraphIndex::kDenseVertexLimit,
                                     size_t{0}}) {
      const GraphIndex index(g, dense_limit);
      SetSequence prefix;
      const bool finished = esu_internal::RunEsu(
          index, 4, 0, 12, [&](const VertexId* set, size_t size) {
            prefix.emplace_back(set, set + size);
            return prefix.size() < limit;
          });
      EXPECT_FALSE(finished);
      EXPECT_EQ(prefix, SetSequence(all.begin(), all.begin() + limit));
    }
  }
}

TEST(EsuDifferentialTest, RootRangesPartitionTheEnumeration) {
  // Splitting the root range anywhere and concatenating the two runs must
  // reproduce the full-range sequence — the property the parallel sharding
  // relies on (chunks merge in root order).
  Rng rng(77);
  const Graph g = ErdosRenyi(12, 30, rng);
  const GraphIndex index(g);
  const SetSequence full = IndexSequence(index, 4);
  for (VertexId split = 0; split <= 12; ++split) {
    SetSequence merged = RootRangeSequence(index, 4, 0, split);
    for (std::vector<VertexId>& set : RootRangeSequence(index, 4, split, 12)) {
      merged.push_back(std::move(set));
    }
    EXPECT_EQ(merged, full) << "split at root " << split;
  }
}

}  // namespace
}  // namespace lamo
