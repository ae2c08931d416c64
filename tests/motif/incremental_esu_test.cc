// The headline differential battery for the dynamic-interactome path.
//
// The incremental maintenance claim is: after any sequence of edge
// additions and deletions, an occurrence store patched only through
// EnumeratePairSubgraphs deltas (the connected k-sets containing *both*
// changed endpoints) is exactly — multiset-per-canonical-class exactly —
// the store a from-scratch re-mine of the final graph would build. The
// battery proves it over random graphs x random mutation sequences on both
// GraphIndex layouts, after first pinning the three primitives the delta
// math rests on: the pair-bit layout, the packed-mask connectivity test,
// and the exactly-once/complete enumeration of pair-anchored sets.
#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_index.h"
#include "graph/small_graph.h"
#include "motif/canon_cache.h"
#include "motif/delta_esu.h"
#include "motif/esu_engine.h"
#include "util/random.h"

namespace lamo {
namespace {

TEST(PairBitIndexTest, MatchesInducedBitsAndUnpackBitsLayout) {
  // PairBitIndex must name exactly the bit InducedBits sets for each vertex
  // pair, and agree with SharedCanonCache::UnpackBits — the delta
  // classifier clears the anchor pair's bit by this index, so a layout
  // mismatch would corrupt every "without the edge" pattern.
  Rng rng(101);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 6 + rng.Uniform(6);  // 6..11
    Rng graph_rng(rng.Next64());
    const Graph g = ErdosRenyi(n, rng.Uniform(n * (n - 1) / 2 + 1), graph_rng);
    const GraphIndex index(g);
    for (size_t k = 2; k <= 5 && k <= n; ++k) {
      // A random ascending k-subset.
      std::vector<VertexId> verts;
      while (verts.size() < k) {
        const VertexId v = static_cast<VertexId>(rng.Uniform(n));
        if (!std::count(verts.begin(), verts.end(), v)) verts.push_back(v);
      }
      std::sort(verts.begin(), verts.end());
      const PatternKey bits = index.InducedBits(verts.data(), k);
      const SmallGraph unpacked = SharedCanonCache::UnpackBits(bits, k);
      for (size_t i = 0; i < k; ++i) {
        for (size_t j = i + 1; j < k; ++j) {
          const bool bit_set =
              (bits >> PairBitIndex(i, j, k)) & 1;
          EXPECT_EQ(bit_set, g.HasEdge(verts[i], verts[j]))
              << "n=" << n << " k=" << k << " i=" << i << " j=" << j;
          EXPECT_EQ(bit_set, unpacked.HasEdge(i, j));
        }
      }
    }
  }
}

TEST(MaskConnectedTest, MatchesSmallGraphConnectivity) {
  // Exhaustive for k <= 5, sampled above: MaskConnected must agree with
  // SmallGraph::IsConnected on the unpacked graph for every mask.
  for (size_t k = 2; k <= 5; ++k) {
    const uint64_t masks = uint64_t{1} << (k * (k - 1) / 2);
    for (uint64_t bits = 0; bits < masks; ++bits) {
      EXPECT_EQ(MaskConnected(bits, k),
                SharedCanonCache::UnpackBits(bits, k).IsConnected())
          << "k=" << k << " bits=" << bits;
    }
  }
  Rng rng(202);
  for (size_t k = 6; k <= 8; ++k) {
    for (int trial = 0; trial < 2000; ++trial) {
      const uint64_t bits = rng.Next64() & ((uint64_t{1} << (k * (k - 1) / 2)) - 1);
      EXPECT_EQ(MaskConnected(bits, k),
                SharedCanonCache::UnpackBits(bits, k).IsConnected())
          << "k=" << k << " bits=" << bits;
    }
  }  // Sizes 12 and 16 use the key's high half; AND-ing draws thins the
  // masks so both connected and disconnected patterns occur.
  for (const size_t k : {size_t{12}, kMaxPatternVertices}) {
    const PatternKey all = (PatternKey{1} << (k * (k - 1) / 2)) - 1;
    for (int trial = 0; trial < 2000; ++trial) {
      PatternKey bits = all;
      for (int draw = 0; draw < 1 + trial % 4; ++draw) {
        const PatternKey high = PatternKey{rng.Next64()} << 64;
        bits &= high | rng.Next64();
      }
      EXPECT_EQ(MaskConnected(bits, k),
                SharedCanonCache::UnpackBits(bits, k).IsConnected())
          << "k=" << k << " trial=" << trial;
    }
  }
}

// Every connected k-set containing u and v, by walking all C(n, k) vertex
// subsets — independent of the ESU engine under test.
std::set<std::vector<VertexId>> BruteForcePairSets(const GraphIndex& index,
                                                   VertexId u, VertexId v,
                                                   size_t k) {
  std::set<std::vector<VertexId>> sets;
  const size_t n = index.num_vertices();
  std::vector<VertexId> subset(k);
  for (size_t i = 0; i < k; ++i) subset[i] = static_cast<VertexId>(i);
  while (true) {
    const PatternKey bits = index.InducedBits(subset.data(), k);
    if (std::count(subset.begin(), subset.end(), u) &&
        std::count(subset.begin(), subset.end(), v) &&
        SharedCanonCache::UnpackBits(bits, k).IsConnected()) {
      sets.insert(subset);
    }
    // Advance to the next lexicographic k-combination of [0, n).
    size_t pos = k;
    while (pos > 0 && subset[pos - 1] == n - k + pos - 1) --pos;
    if (pos == 0) break;
    ++subset[pos - 1];
    for (size_t i = pos; i < k; ++i) subset[i] = subset[i - 1] + 1;
  }
  return sets;
}

// A pair enumeration as comparable values, in emission order.
using PairSequence =
    std::vector<std::tuple<std::vector<VertexId>, PatternKey, PatternKey, bool>>;

PairSequence PairRun(const GraphIndex& index, VertexId u, VertexId v,
                     size_t k) {
  std::vector<PairSubgraph> subs;
  EnumeratePairSubgraphs(index, u, v, k, &subs);
  PairSequence seq;
  for (const PairSubgraph& ps : subs) {
    seq.emplace_back(ps.verts, ps.bits_with, ps.bits_without,
                     ps.connected_without);
  }
  return seq;
}

TEST(EnumeratePairSubgraphsTest, ExactlyOnceAndCompleteOnRandomGraphs) {
  // The pair-anchored walk must emit every connected k-set containing both
  // endpoints exactly once, on the dense and the sparse index alike, with
  // self-consistent bit packings.
  Rng rng(303);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 5 + rng.Uniform(10);  // 5..14
    Rng graph_rng(rng.Next64());
    const Graph g = ErdosRenyi(n, rng.Uniform(n * (n - 1) / 2 + 1), graph_rng);
    if (g.num_edges() == 0) continue;
    // A random edge: walk Edges() a random distance.
    const auto edges = g.Edges();
    const auto [u, v] = edges[rng.Uniform(edges.size())];
    for (const size_t dense_limit :
         {GraphIndex::kDenseVertexLimit, size_t{0}}) {
      const GraphIndex index(g, dense_limit);
      for (size_t k = 2; k <= 5 && k <= n; ++k) {
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << " n=" << n << " m="
                     << g.num_edges() << " edge {" << u << "," << v
                     << "} k=" << k << " dense_limit=" << dense_limit);
        std::vector<PairSubgraph> subs;
        EnumeratePairSubgraphs(index, u, v, k, &subs);
        std::set<std::vector<VertexId>> seen;
        for (const PairSubgraph& ps : subs) {
          ASSERT_EQ(ps.verts.size(), k);
          EXPECT_TRUE(std::is_sorted(ps.verts.begin(), ps.verts.end()));
          EXPECT_TRUE(seen.insert(ps.verts).second)
              << "duplicate emission";
          EXPECT_EQ(ps.bits_with, index.InducedBits(ps.verts.data(), k));
          EXPECT_TRUE(MaskConnected(ps.bits_with, k));
          EXPECT_EQ(ps.connected_without,
                    k > 2 && MaskConnected(ps.bits_without, k));
          // bits_without differs from bits_with in exactly the anchor bit.
          const PatternKey diff = ps.bits_with ^ ps.bits_without;
          EXPECT_EQ(diff & (diff - 1), PatternKey{0});
          EXPECT_NE(diff, PatternKey{0});
        }
        EXPECT_EQ(seen, BruteForcePairSets(index, u, v, k));
      }
    }
  }
}

TEST(EnumeratePairSubgraphsTest, DenseAndSparseEmitTheSameSequence) {
  // Live updates append occurrences in emission order, so the dense-bitset
  // and CSR-only index layouts must emit the identical *sequence* of sets
  // and packings, for every edge and either endpoint order.
  Rng rng(404);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 6 + rng.Uniform(12);  // 6..17
    Rng graph_rng(rng.Next64());
    const Graph g = ErdosRenyi(n, rng.Uniform(n * (n - 1) / 2 + 1), graph_rng);
    const GraphIndex dense(g);
    const GraphIndex sparse(g, 0);
    ASSERT_TRUE(dense.dense());
    ASSERT_FALSE(sparse.dense());
    for (const auto& [u, v] : g.Edges()) {
      for (size_t k = 2; k <= 6 && k <= n; ++k) {
        SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                        << " edge {" << u << "," << v
                                        << "} k=" << k);
        const PairSequence expected = PairRun(dense, u, v, k);
        EXPECT_EQ(PairRun(sparse, u, v, k), expected);
        EXPECT_EQ(PairRun(dense, v, u, k), expected);
      }
    }
  }
}

TEST(EnumeratePairSubgraphsTest, AbsentPairSeedsLikeThePresentEdge) {
  // The pair seed needs no stored edge: for a non-adjacent pair {u, v},
  // enumerating on G must give element-for-element the sequence (sets,
  // packings, connectivity, order) the same call gives on G + {u, v} —
  // what lets updates and PREDICT_EDGE enumerate on the unmodified index.
  Rng rng(505);
  size_t compared = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 12 + rng.Uniform(5);  // 12..16
    Rng graph_rng(rng.Next64());
    const Graph g = ErdosRenyi(n, n + rng.Uniform(n), graph_rng);
    VertexId u = static_cast<VertexId>(rng.Uniform(n));
    VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v || g.HasEdge(u, v)) continue;
    const Graph with = ToggleEdge(g, u, v);
    ASSERT_TRUE(with.HasEdge(u, v));
    for (const size_t dense_limit :
         {GraphIndex::kDenseVertexLimit, size_t{0}}) {
      const GraphIndex index(g, dense_limit);
      const GraphIndex index_with(with, dense_limit);
      for (const size_t k : {2, 3, 4, 5, 6, 12}) {
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << " n=" << n << " pair {" << u
                     << "," << v << "} k=" << k
                     << " dense_limit=" << dense_limit);
        const PairSequence expected = PairRun(index_with, u, v, k);
        EXPECT_EQ(PairRun(index, u, v, k), expected);
        EXPECT_EQ(PairRun(index, v, u, k), expected);
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 100u);
}

TEST(EnumeratePairSubgraphsTest, ClosedFormCounts) {
  // Clique K_n, edge {0, 1}: every k-set containing both endpoints is
  // connected, so the count is C(n-2, k-2), and every set stays connected
  // without the edge for k > 2.
  {
    const size_t n = 9;
    GraphBuilder b(n);
    for (VertexId x = 0; x < n; ++x) {
      for (VertexId y = x + 1; y < n; ++y) ASSERT_TRUE(b.AddEdge(x, y).ok());
    }
    const Graph g = b.Build();
    const GraphIndex index(g);
    const auto choose = [](size_t a, size_t c) {
      size_t r = 1;
      for (size_t i = 0; i < c; ++i) r = r * (a - i) / (i + 1);
      return r;
    };
    for (size_t k = 2; k <= 5; ++k) {
      std::vector<PairSubgraph> subs;
      EnumeratePairSubgraphs(index, 0, 1, k, &subs);
      EXPECT_EQ(subs.size(), choose(n - 2, k - 2)) << "clique k=" << k;
      for (const PairSubgraph& ps : subs) {
        EXPECT_EQ(ps.connected_without, k > 2);
      }
    }
  }
  // Star with hub 0, edge {0, 1}: k-sets must take the hub, leaf 1, and
  // k-2 of the other n-2 leaves — C(n-2, k-2) again — but removing the
  // hub-leaf edge always strands leaf 1.
  {
    const size_t n = 10;
    GraphBuilder b(n);
    for (VertexId leaf = 1; leaf < n; ++leaf) {
      ASSERT_TRUE(b.AddEdge(0, leaf).ok());
    }
    const Graph g = b.Build();
    const GraphIndex index(g);
    size_t expected = 1;  // C(8, k-2) accumulated below
    for (size_t k = 2; k <= 5; ++k) {
      std::vector<PairSubgraph> subs;
      EnumeratePairSubgraphs(index, 0, 1, k, &subs);
      EXPECT_EQ(subs.size(), expected) << "star k=" << k;
      expected = expected * (n - k) / (k - 1);  // C(n-2,k-2) -> C(n-2,k-1)
      for (const PairSubgraph& ps : subs) {
        EXPECT_FALSE(ps.connected_without);
      }
    }
  }
  // Path 0-1-...-n-1, middle edge {i, i+1}: connected k-sets are exactly
  // the length-k windows covering the edge, and cutting the edge splits
  // every window.
  {
    const size_t n = 12;
    GraphBuilder b(n);
    for (VertexId x = 0; x + 1 < n; ++x) ASSERT_TRUE(b.AddEdge(x, x + 1).ok());
    const Graph g = b.Build();
    const GraphIndex index(g);
    for (const VertexId i : {VertexId{0}, VertexId{5}, VertexId{10}}) {
      for (size_t k = 2; k <= 5; ++k) {
        std::vector<PairSubgraph> subs;
        EnumeratePairSubgraphs(index, i, i + 1, k, &subs);
        const size_t lo = i + 1 >= k ? i + 2 - k : 0;  // first window start
        const size_t hi = std::min<size_t>(i, n - k);  // last window start
        EXPECT_EQ(subs.size(), hi - lo + 1) << "path i=" << i << " k=" << k;
        for (const PairSubgraph& ps : subs) {
          EXPECT_FALSE(ps.connected_without);
        }
      }
    }
  }
}

// ---- The incremental-vs-full differential ---------------------------------

// Occurrence store: canonical code -> multiset of sorted vertex sets, the
// exact shape the serve-path update engine maintains per motif pattern.
using Store = std::map<std::string, std::multiset<std::vector<VertexId>>>;

std::string CodeKey(const CanonicalResult& canon) {
  return std::string(canon.code.begin(), canon.code.end());
}

// From-scratch re-mine of every connected k-set, the ground truth.
Store FullMine(const GraphIndex& index, size_t k, SharedCanonCache* cache) {
  Store store;
  esu_internal::RunEsu(index, k, 0,
                       static_cast<VertexId>(index.num_vertices()),
                       [&](const VertexId* set, size_t size) {
                         const PatternKey bits = index.InducedBits(set, size);
                         store[CodeKey(cache->Lookup(bits))].emplace(
                             set, set + size);
                         return true;
                       });
  return store;
}

void EraseOne(Store* store, const std::string& key,
              const std::vector<VertexId>& verts) {
  auto it = store->find(key);
  ASSERT_NE(it, store->end()) << "removing from absent pattern class";
  auto inst = it->second.find(verts);
  ASSERT_NE(inst, it->second.end()) << "removing absent occurrence";
  it->second.erase(inst);
  if (it->second.empty()) store->erase(it);
}

// Patches one store for one edge mutation using only the pair-anchored
// delta sets — the operation under test. `index` is the graph before the
// mutation, as in UpdateEngine::Apply: the pair seed treats {u, v} as an
// edge either way.
void PatchStore(const GraphIndex& index, Store* store, bool add, VertexId u,
                VertexId v, size_t k, SharedCanonCache* cache) {
  std::vector<PairSubgraph> subs;
  EnumeratePairSubgraphs(index, u, v, k, &subs);
  for (const PairSubgraph& ps : subs) {
    if (add) {
      if (ps.connected_without) {
        EraseOne(store, CodeKey(cache->Lookup(ps.bits_without)), ps.verts);
      }
      (*store)[CodeKey(cache->Lookup(ps.bits_with))].insert(ps.verts);
    } else {
      EraseOne(store, CodeKey(cache->Lookup(ps.bits_with)), ps.verts);
      if (ps.connected_without) {
        (*store)[CodeKey(cache->Lookup(ps.bits_without))].insert(ps.verts);
      }
    }
  }
}

// A starting graph cycling through structural families so sequences hit
// hubs, dense cores, and near-trees, not just mid-density noise.
Graph SeedGraph(int trial, size_t n, Rng& rng) {
  Rng graph_rng(rng.Next64());
  switch (trial % 4) {
    case 0:
      return DuplicationDivergence(n, 0.4, 0.3, graph_rng);
    case 1:
      return BarabasiAlbert(n, 2, graph_rng);
    case 2:
      return ErdosRenyi(n, n * (n - 1) / 8, graph_rng);  // dense-ish
    default:
      return ErdosRenyi(n, n + rng.Uniform(n), graph_rng);  // sparse
  }
}

TEST(IncrementalEsuDifferentialTest, MatchesFullRemineOver120Sequences) {
  // 60 random graphs x {dense, sparse} index = 120 mutation sequences.
  // Each sequence applies 12 random add/delete mutations while maintaining
  // k=3 and k=4 stores incrementally; after EVERY mutation both stores must
  // equal a from-scratch re-mine of the current graph, multiset-exactly.
  Rng rng(20260807);
  SharedCanonCache cache3(3), cache4(4);
  size_t sequences = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 12 + rng.Uniform(29);  // 12..40
    const Graph g0 = SeedGraph(trial, n, rng);
    const uint64_t mutation_seed = rng.Next64();
    for (const size_t dense_limit :
         {GraphIndex::kDenseVertexLimit, size_t{0}}) {
      ++sequences;
      Rng mut_rng(mutation_seed);  // same sequence on both index layouts
      Graph graph = g0;
      GraphIndex index(graph, dense_limit);
      Store store3 = FullMine(index, 3, &cache3);
      Store store4 = FullMine(index, 4, &cache4);
      for (int step = 0; step < 12; ++step) {
        // A random endpoint pair; toggle its edge.
        VertexId u = static_cast<VertexId>(mut_rng.Uniform(n));
        VertexId v = static_cast<VertexId>(mut_rng.Uniform(n));
        if (u == v) v = (v + 1) % n;
        const bool add = !graph.HasEdge(u, v);
        SCOPED_TRACE(testing::Message()
                     << "trial " << trial << " dense_limit=" << dense_limit
                     << " step " << step << (add ? " ADD {" : " DEL {") << u
                     << "," << v << "} n=" << n);
        PatchStore(index, &store3, add, u, v, 3, &cache3);
        PatchStore(index, &store4, add, u, v, 4, &cache4);
        graph = ToggleEdge(graph, u, v);
        index = GraphIndex(graph, dense_limit);
        ASSERT_EQ(store3, FullMine(index, 3, &cache3));
        ASSERT_EQ(store4, FullMine(index, 4, &cache4));
      }
    }
  }
  EXPECT_GE(sequences, 100u);
}

}  // namespace
}  // namespace lamo
