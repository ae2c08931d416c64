#include "motif/miner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "graph/canonical.h"
#include "graph/generators.h"
#include "motif/esu.h"
#include "obs/obs.h"
#include "parallel/parallel_for.h"

namespace lamo {
namespace {

/// One Mine() call's output and miner counters.
struct MineRun {
  std::vector<Motif> motifs;
  uint64_t candidate_sets = 0;
  uint64_t dedup_hits = 0;
};

MineRun RunMiner(const Graph& g, const MinerConfig& config) {
  ObsSink sink;
  SetObsSink(&sink);
  MineRun run;
  run.motifs = FrequentSubgraphMiner(g, config).Mine();
  SetObsSink(nullptr);
  const auto counters = sink.CounterTotals();
  run.candidate_sets = counters.at("miner.candidate_sets");
  run.dedup_hits = counters.at("miner.dedup_hits");
  return run;
}

/// Test-only oracle: the serial set-based grower the miner replaced. Every
/// reached vertex set goes through one seen-set per level and is
/// canonicalized from scratch.
MineRun SetBasedMine(const Graph& g, const MinerConfig& config) {
  MineRun run;
  std::map<std::vector<uint8_t>, Motif> level;
  SmallGraph edge(2);
  edge.AddEdge(0, 1);
  Motif& edges = level[edge.AdjacencyCode()];
  edges.pattern = edge;
  edges.occurrences = OccurrenceList(2);
  for (const auto& [a, b] : g.Edges()) edges.occurrences.push_back({a, b});
  if (edges.occurrences.size() < config.min_frequency) level.clear();
  for (size_t size = 2;; ++size) {
    for (auto& [code, m] : level) {
      m.code = code;
      m.frequency = m.occurrences.size();
      if (size >= config.min_size) run.motifs.push_back(m);
    }
    if (size == config.max_size || level.empty()) return run;
    std::map<std::vector<uint8_t>, Motif> next;
    std::set<std::vector<VertexId>> seen;
    for (const auto& [code, m] : level) {
      for (const std::span<const VertexId> occ : m.occurrences) {
        for (const VertexId v : occ) {
          for (const VertexId w : g.Neighbors(v)) {
            if (std::count(occ.begin(), occ.end(), w)) {
              continue;
            }
            std::vector<VertexId> set(occ.begin(), occ.end());
            set.push_back(w);
            std::sort(set.begin(), set.end());
            if (!seen.insert(set).second) {
              ++run.dedup_hits;
              continue;
            }
            ++run.candidate_sets;
            const CanonicalResult canon =
                Canonicalize(SmallGraph::InducedSubgraph(g, set));
            auto [it, inserted] = next.try_emplace(canon.code);
            if (inserted) {
              it->second.pattern = canon.graph;
              it->second.occurrences = OccurrenceList(size + 1);
            }
            auto& occs = it->second.occurrences;
            if (config.max_occurrences_per_pattern != 0 &&
                occs.size() >= config.max_occurrences_per_pattern) {
              continue;
            }
            const std::span<VertexId> occ = occs.push_back_uninitialized();
            for (size_t c = 0; c <= size; ++c) {
              occ[c] = set[canon.canonical_to_original[c]];
            }
          }
        }
      }
    }
    std::erase_if(next, [&](const auto& e) {
      return e.second.occurrences.size() < config.min_frequency;
    });
    const size_t beam = config.max_patterns_per_level;
    if (beam != 0 && next.size() > beam) {
      std::vector<std::pair<size_t, std::vector<uint8_t>>> ranked;
      for (const auto& [c, m] : next) ranked.emplace_back(m.occurrences.size(), c);
      std::stable_sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        return a.first > b.first;
      });
      std::map<std::vector<uint8_t>, Motif> kept;
      for (size_t i = 0; i < beam; ++i) kept.insert(next.extract(ranked[i].second));
      next = std::move(kept);
    }
    level = std::move(next);
  }
}

/// Full Motif vectors (code, pattern, occurrence order and alignment,
/// frequency) and both counters must agree.
void ExpectSameRun(const MineRun& got, const MineRun& want) {
  EXPECT_EQ(got.candidate_sets, want.candidate_sets);
  EXPECT_EQ(got.dedup_hits, want.dedup_hits);
  ASSERT_EQ(got.motifs.size(), want.motifs.size());
  for (size_t i = 0; i < got.motifs.size(); ++i) {
    const Motif& a = got.motifs[i];
    const Motif& b = want.motifs[i];
    EXPECT_EQ(a.code, b.code) << "motif " << i;
    EXPECT_TRUE(a.pattern == b.pattern) << "motif " << i;
    EXPECT_EQ(a.frequency, b.frequency) << "motif " << i;
    ASSERT_EQ(a.occurrences, b.occurrences) << "motif " << i;
  }
}

/// Runs the miner at 1 and 4 threads against the set-based oracle and
/// returns the oracle's run.
MineRun ExpectMatchesOracle(const Graph& g, const MinerConfig& config) {
  MineRun want = SetBasedMine(g, config);
  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetThreadCount(threads);
    ExpectSameRun(RunMiner(g, config), want);
  }
  SetThreadCount(0);
  return want;
}

TEST(MinerDifferentialTest, MatchesSetBasedGrowerUnderCapsAndBeam) {
  // Caps and beams of 1-3 keep only some parents, so a set is often
  // reachable from parents that were never stored. Sizes 6-7 run through
  // both SharedCanonCache layouts (dense k <= 6, sharded k > 6).
  for (uint64_t seed = 0; seed < 120; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(1000 + seed);
    const size_t n = 12 + seed % 19;
    const Graph g = seed % 2 == 0 ? ErdosRenyi(n, 2 * n, rng)
                                  : BarabasiAlbert(n, 2, rng);
    MinerConfig config;
    config.min_size = 3;
    config.max_size = 6 + seed % 2;
    config.min_frequency = 1;
    config.max_occurrences_per_pattern = 1 + seed % 3;
    config.max_patterns_per_level = 1 + (seed / 3) % 3;
    ExpectMatchesOracle(g, config);
    if (HasFailure()) return;
  }
}

TEST(MinerDifferentialTest, MatchesSetBasedGrowerAcrossBlocksAndWaves) {
  // Unpruned levels large enough to span many parent blocks and more than
  // one merge wave.
  Rng rng(77);
  const Graph g = BarabasiAlbert(400, 3, rng);
  MinerConfig config;
  config.min_size = 3;
  config.max_size = 4;
  config.min_frequency = 1;
  config.max_occurrences_per_pattern = 0;
  const MineRun run = ExpectMatchesOracle(g, config);
  // The size-3 parents fill more than two waves of 16 blocks of 256.
  size_t parents = 0;
  for (const Motif& m : run.motifs) {
    if (m.size() == 3) parents += m.occurrences.size();
  }
  EXPECT_GT(parents, 32u * 256u);
}

/// The wave of size-3 parents (16 blocks of 256) in which each size-4
/// pattern of `run` that holds `cap` occurrences reached its last one.
/// Parent g is the g-th size-3 occurrence in output order, and a size-4
/// set is first reached from the smallest g among its size-3 subsets.
std::vector<size_t> CapFillWaves(const MineRun& run, size_t cap) {
  std::map<std::vector<VertexId>, size_t> parent_index;
  for (const Motif& m : run.motifs) {
    if (m.size() != 3) continue;
    for (const std::span<const VertexId> occ : m.occurrences) {
      std::vector<VertexId> set(occ.begin(), occ.end());
      std::sort(set.begin(), set.end());
      parent_index.emplace(set, parent_index.size());
    }
  }
  std::vector<size_t> waves;
  for (const Motif& m : run.motifs) {
    if (m.size() != 4 || m.frequency != cap) continue;
    const std::span<const VertexId> last = m.occurrences[cap - 1];
    size_t first_parent = SIZE_MAX;
    for (size_t u = 0; u < 4; ++u) {
      std::vector<VertexId> sub;
      for (size_t i = 0; i < 4; ++i) {
        if (i != u) sub.push_back(last[i]);
      }
      std::sort(sub.begin(), sub.end());
      const auto it = parent_index.find(sub);
      if (it != parent_index.end()) {
        first_parent = std::min(first_parent, it->second);
      }
    }
    waves.push_back(first_parent / (16 * 256));
  }
  return waves;
}

TEST(MinerDifferentialTest, MatchesSetBasedGrowerWhenCapsFillAcrossWaves) {
  // Level 4 grows from several waves of size-3 parents. One size-4
  // pattern reaches the cap inside the first wave, so later waves count
  // its new sets but keep none of them; another reaches it in the second
  // wave, after the first left it short of the cap.
  Rng rng(77);
  const Graph g = BarabasiAlbert(400, 3, rng);
  MinerConfig config;
  config.min_size = 3;
  config.max_size = 4;
  config.min_frequency = 1;
  config.max_occurrences_per_pattern = 60000;
  const std::vector<size_t> waves =
      CapFillWaves(ExpectMatchesOracle(g, config), 60000);
  EXPECT_NE(std::find(waves.begin(), waves.end(), 0), waves.end());
  EXPECT_NE(std::find(waves.begin(), waves.end(), 1), waves.end());
}

TEST(MinerDifferentialTest, MatchesSetBasedGrowerPastCanonCacheSizes) {
  // Levels up to 12 run through the sharded SharedCanonCache layout; a
  // second input grows to 20 vertices, past kMaxPatternVertices (16), where
  // levels canonicalize with Canonicalize and a block-local memo.
  Rng rng(78);
  const Graph g = ErdosRenyi(24, 48, rng);
  MinerConfig config;
  config.min_size = 3;
  config.max_size = 12;
  config.min_frequency = 1;
  config.max_occurrences_per_pattern = 3;
  config.max_patterns_per_level = 2;
  ExpectMatchesOracle(g, config);

  const Graph large = ErdosRenyi(30, 60, rng);
  config.max_size = 20;
  const MineRun run = ExpectMatchesOracle(large, config);
  size_t largest = 0;
  for (const Motif& m : run.motifs) largest = std::max(largest, m.size());
  EXPECT_EQ(largest, 20u);
}

TEST(MinerTest, MatchesEsuWhenUnpruned) {
  // With min_frequency 1 and no caps, the level-wise grower must find
  // exactly the classes and counts that exhaustive ESU finds.
  Rng rng(31);
  const Graph g = ErdosRenyi(20, 40, rng);
  MinerConfig config;
  config.min_size = 3;
  config.max_size = 4;
  config.min_frequency = 1;
  config.max_occurrences_per_pattern = 0;
  FrequentSubgraphMiner miner(g, config);
  const auto motifs = miner.Mine();

  for (size_t k = 3; k <= 4; ++k) {
    const auto exact = CountSubgraphClasses(g, k);
    std::map<std::vector<uint8_t>, size_t> mined;
    for (const Motif& m : motifs) {
      if (m.size() == k) mined[m.code] = m.frequency;
    }
    EXPECT_EQ(mined, exact) << "size " << k;
  }
}

TEST(MinerTest, FrequencyThresholdPrunes) {
  Rng rng(32);
  const Graph g = ErdosRenyi(30, 60, rng);
  MinerConfig config;
  config.min_size = 3;
  config.max_size = 3;
  config.min_frequency = 5;
  FrequentSubgraphMiner miner(g, config);
  for (const Motif& m : miner.Mine()) {
    EXPECT_GE(m.frequency, 5u);
  }
}

TEST(MinerTest, OccurrencesAreAlignedEmbeddings) {
  Rng rng(33);
  const Graph g = ErdosRenyi(25, 55, rng);
  MinerConfig config;
  config.min_size = 3;
  config.max_size = 4;
  config.min_frequency = 2;
  FrequentSubgraphMiner miner(g, config);
  for (const Motif& m : miner.Mine()) {
    for (const std::span<const VertexId> occ : m.occurrences) {
      ASSERT_EQ(occ.size(), m.size());
      // The embedding maps motif edges to graph edges and non-edges to
      // non-edges (vertex-induced occurrence).
      for (uint32_t a = 0; a < m.size(); ++a) {
        for (uint32_t b = a + 1; b < m.size(); ++b) {
          EXPECT_EQ(m.pattern.HasEdge(a, b),
                    g.HasEdge(occ[a], occ[b]));
        }
      }
    }
  }
}

TEST(MinerTest, OccurrenceSetsDistinct) {
  Rng rng(34);
  const Graph g = ErdosRenyi(25, 55, rng);
  MinerConfig config;
  config.min_size = 3;
  config.max_size = 4;
  config.min_frequency = 1;
  FrequentSubgraphMiner miner(g, config);
  for (const Motif& m : miner.Mine()) {
    std::set<std::vector<VertexId>> sets;
    for (const std::span<const VertexId> occ : m.occurrences) {
      std::vector<VertexId> sorted(occ.begin(), occ.end());
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(sets.insert(sorted).second);
    }
  }
}

TEST(MinerTest, PlantedCliquePatternFound) {
  // Plant 12 disjoint triangles on top of a sparse random background.
  Rng rng(35);
  GraphBuilder builder(100);
  for (int t = 0; t < 12; ++t) {
    const VertexId base = static_cast<VertexId>(3 * t);
    ASSERT_TRUE(builder.AddEdge(base, base + 1).ok());
    ASSERT_TRUE(builder.AddEdge(base + 1, base + 2).ok());
    ASSERT_TRUE(builder.AddEdge(base, base + 2).ok());
  }
  // Background tail so the graph is bigger than the plants.
  for (VertexId v = 36; v + 1 < 100; ++v) {
    ASSERT_TRUE(builder.AddEdge(v, v + 1).ok());
  }
  const Graph g = builder.Build();

  MinerConfig config;
  config.min_size = 3;
  config.max_size = 3;
  config.min_frequency = 10;
  FrequentSubgraphMiner miner(g, config);
  const auto motifs = miner.Mine();

  SmallGraph triangle(3);
  triangle.AddEdge(0, 1);
  triangle.AddEdge(1, 2);
  triangle.AddEdge(0, 2);
  const auto triangle_code = CanonicalCode(triangle);
  bool found = false;
  for (const Motif& m : motifs) {
    if (m.code == triangle_code) {
      found = true;
      EXPECT_EQ(m.frequency, 12u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(MinerTest, OccurrenceCapBoundsMemory) {
  Rng rng(36);
  const Graph g = BarabasiAlbert(120, 3, rng);
  MinerConfig config;
  config.min_size = 3;
  config.max_size = 3;
  config.min_frequency = 1;
  config.max_occurrences_per_pattern = 10;
  FrequentSubgraphMiner miner(g, config);
  for (const Motif& m : miner.Mine()) {
    EXPECT_LE(m.occurrences.size(), 10u);
  }
}

TEST(MinerTest, MaxSizePastSmallGraphLimitStopsWhenLevelsRunOut) {
  // max_size above SmallGraph::kMaxVertices means "grow until a level is
  // empty". Eight disjoint 6-vertex wheels-minus-a-spoke: no connected set
  // has more than 6 vertices, so level 7 is empty long before 64.
  GraphBuilder builder(48);
  for (VertexId c = 0; c < 8; ++c) {
    const VertexId hub = 6 * c;
    for (VertexId i = 1; i < 6; ++i) {
      ASSERT_TRUE(builder.AddEdge(hub + i, hub + i % 5 + 1).ok());
      if (i > 1) {
        ASSERT_TRUE(builder.AddEdge(hub, hub + i).ok());
      }
    }
  }
  const Graph g = builder.Build();
  MinerConfig config;
  config.min_size = 3;
  config.max_size = 10;
  config.min_frequency = 2;
  const MineRun bounded = RunMiner(g, config);
  ASSERT_FALSE(bounded.motifs.empty());
  ASSERT_EQ(bounded.motifs.back().size(), 6u);
  config.max_size = SmallGraph::kMaxVertices + 36;
  ExpectSameRun(RunMiner(g, config), bounded);
}

TEST(MinerTest, BeamKeepsMostFrequent) {
  Rng rng(37);
  const Graph g = ErdosRenyi(40, 120, rng);
  MinerConfig unlimited;
  unlimited.min_size = 3;
  unlimited.max_size = 3;
  unlimited.min_frequency = 1;
  const auto all = FrequentSubgraphMiner(g, unlimited).Mine();

  MinerConfig beamed = unlimited;
  beamed.max_patterns_per_level = 1;
  const auto top = FrequentSubgraphMiner(g, beamed).Mine();
  ASSERT_EQ(top.size(), 1u);
  size_t max_freq = 0;
  for (const Motif& m : all) max_freq = std::max(max_freq, m.frequency);
  EXPECT_EQ(top[0].frequency, max_freq);
}

TEST(MinerTest, BeamTiesKeepCanonicalCodeOrder) {
  // Every connected 5-vertex graph (21 classes) planted once as its own
  // component: at level 5 all 21 patterns tie at frequency 1, and a beam of
  // 18 must keep the first 18 in canonical-code order.
  std::set<std::vector<uint8_t>> codes;
  std::vector<SmallGraph> classes;
  for (uint32_t mask = 0; mask < (1u << 10); ++mask) {
    SmallGraph candidate(5);
    size_t bit = 0;
    for (uint32_t a = 0; a < 5; ++a) {
      for (uint32_t b = a + 1; b < 5; ++b, ++bit) {
        if ((mask >> bit) & 1) candidate.AddEdge(a, b);
      }
    }
    if (candidate.IsConnected() &&
        codes.insert(CanonicalCode(candidate)).second) {
      classes.push_back(candidate);
    }
  }
  ASSERT_EQ(classes.size(), 21u);
  GraphBuilder builder(5 * classes.size());
  for (size_t c = 0; c < classes.size(); ++c) {
    for (const auto& [a, b] : classes[c].Edges()) {
      ASSERT_TRUE(builder.AddEdge(5 * c + a, 5 * c + b).ok());
    }
  }
  const Graph g = builder.Build();

  MinerConfig config;
  config.min_size = 5;
  config.max_size = 5;
  config.min_frequency = 1;
  config.max_patterns_per_level = 18;
  std::vector<std::vector<uint8_t>> kept;
  for (const Motif& m : FrequentSubgraphMiner(g, config).Mine()) {
    EXPECT_EQ(m.frequency, 1u);
    kept.push_back(m.code);
  }
  const std::vector<std::vector<uint8_t>> first18(codes.begin(),
                                                  std::next(codes.begin(), 18));
  EXPECT_EQ(kept, first18);
}

}  // namespace
}  // namespace lamo
