#include "motif/esu_finder.h"

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "graph/canonical.h"
#include "graph/generators.h"
#include "motif/miner.h"
#include "parallel/parallel_for.h"

namespace lamo {
namespace {

TEST(EsuFinderTest, AgreesWithLevelWiseMiner) {
  // Both pipelines must find exactly the same frequent classes with the
  // same frequencies and aligned occurrences.
  Rng rng(91);
  const Graph g = ErdosRenyi(30, 70, rng);

  EsuMotifConfig esu_config;
  esu_config.size = 4;
  esu_config.min_frequency = 3;
  esu_config.uniqueness.num_random_networks = 0;  // keep everything
  auto esu_motifs = FindNetworkMotifsEsu(g, esu_config);

  MinerConfig miner_config;
  miner_config.min_size = 4;
  miner_config.max_size = 4;
  miner_config.min_frequency = 3;
  auto miner_motifs = FrequentSubgraphMiner(g, miner_config).Mine();

  ASSERT_EQ(esu_motifs.size(), miner_motifs.size());
  std::map<std::vector<uint8_t>, size_t> esu_freq, miner_freq;
  for (const Motif& m : esu_motifs) esu_freq[m.code] = m.frequency;
  for (const Motif& m : miner_motifs) miner_freq[m.code] = m.frequency;
  EXPECT_EQ(esu_freq, miner_freq);
}

TEST(EsuFinderTest, OccurrencesAreAligned) {
  Rng rng(92);
  const Graph g = ErdosRenyi(25, 55, rng);
  EsuMotifConfig config;
  config.size = 3;
  config.min_frequency = 1;
  config.uniqueness.num_random_networks = 0;
  for (const Motif& m : FindNetworkMotifsEsu(g, config)) {
    for (const std::span<const VertexId> occ : m.occurrences) {
      for (uint32_t a = 0; a < 3; ++a) {
        for (uint32_t b = a + 1; b < 3; ++b) {
          EXPECT_EQ(m.pattern.HasEdge(a, b),
                    g.HasEdge(occ[a], occ[b]));
        }
      }
    }
  }
}

TEST(EsuFinderTest, UniquenessFiltersCommonShapes) {
  // Planted chordless squares on a sparse background: the square passes,
  // the ubiquitous path does not.
  GraphBuilder builder(80);
  for (int s = 0; s < 12; ++s) {
    const VertexId base = static_cast<VertexId>(4 * s);
    ASSERT_TRUE(builder.AddEdge(base, base + 1).ok());
    ASSERT_TRUE(builder.AddEdge(base + 1, base + 2).ok());
    ASSERT_TRUE(builder.AddEdge(base + 2, base + 3).ok());
    ASSERT_TRUE(builder.AddEdge(base + 3, base).ok());
  }
  for (VertexId v = 48; v + 1 < 80; ++v) {
    ASSERT_TRUE(builder.AddEdge(v, v + 1).ok());
  }
  Rng rng(93);
  for (int i = 0; i < 12; ++i) {
    ASSERT_TRUE(builder
                    .AddEdge(static_cast<VertexId>(rng.Uniform(48)),
                             48 + static_cast<VertexId>(rng.Uniform(32)))
                    .ok());
  }
  const Graph g = builder.Build();

  EsuMotifConfig config;
  config.size = 4;
  config.min_frequency = 8;
  config.uniqueness.num_random_networks = 10;
  config.uniqueness_threshold = 0.9;
  config.uniqueness.seed = 3;
  const auto motifs = FindNetworkMotifsEsu(g, config);

  SmallGraph square(4);
  square.AddEdge(0, 1);
  square.AddEdge(1, 2);
  square.AddEdge(2, 3);
  square.AddEdge(3, 0);
  bool square_found = false;
  for (const Motif& m : motifs) {
    EXPECT_GE(m.uniqueness, 0.9);
    if (m.code == CanonicalCode(square)) square_found = true;
  }
  EXPECT_TRUE(square_found);
}

TEST(EsuFinderTest, UniquenessAgreesWithLevelWiseRoute) {
  // The routes count a randomized network differently (ESU class census vs
  // VF2 capped at frequency + 1) on one shared ensemble. With no occurrence
  // cap or beam in play, every class must get the same frequency and
  // uniqueness from both, for any thread count. Planted squares in a random
  // background (the builder drops duplicate edges and self-links) give
  // classes that pass and classes that fail.
  Rng rng(95);
  GraphBuilder builder(70);
  for (VertexId v = 0; v < 40; v += 4) {
    for (VertexId i = 0; i < 4; ++i) {
      ASSERT_TRUE(builder.AddEdge(v + i, v + (i + 1) % 4).ok());
    }
  }
  for (int i = 0; i < 80; ++i) {
    ASSERT_TRUE(builder
                    .AddEdge(static_cast<VertexId>(rng.Uniform(70)),
                             static_cast<VertexId>(rng.Uniform(70)))
                    .ok());
  }
  const Graph g = builder.Build();
  MotifFindingConfig levelwise;
  levelwise.miner.min_size = 3;
  levelwise.miner.max_size = 4;
  levelwise.miner.min_frequency = 3;
  levelwise.uniqueness.num_random_networks = 6;
  levelwise.uniqueness.seed = 17;
  levelwise.uniqueness_threshold = -1.0;
  EsuMotifConfig esu;
  esu.min_frequency = 3;
  esu.uniqueness = levelwise.uniqueness;
  esu.uniqueness_threshold = -1.0;
  for (const size_t threads : {1, 4}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    SetThreadCount(threads);
    std::map<std::vector<uint8_t>, Motif> by_code;
    for (Motif& m : FindNetworkMotifs(g, levelwise)) {
      by_code[m.code] = std::move(m);
    }
    size_t classes = 0;
    std::set<double> scores;
    for (const size_t size : {3, 4}) {
      esu.size = size;
      for (const Motif& m : FindNetworkMotifsEsu(g, esu)) {
        const auto it = by_code.find(m.code);
        ASSERT_NE(it, by_code.end()) << m.ToString();
        EXPECT_EQ(m.frequency, it->second.frequency) << m.ToString();
        EXPECT_DOUBLE_EQ(m.uniqueness, it->second.uniqueness)
            << m.ToString();
        scores.insert(m.uniqueness);
        ++classes;
      }
    }
    EXPECT_EQ(classes, by_code.size());
    // Distinct scores show both counters decided wins and losses.
    EXPECT_GT(scores.size(), 1u);
  }
  SetThreadCount(0);
}

TEST(EsuFinderTest, Deterministic) {
  Rng rng(94);
  const Graph g = BarabasiAlbert(60, 2, rng);
  EsuMotifConfig config;
  config.size = 3;
  config.min_frequency = 5;
  config.uniqueness.num_random_networks = 4;
  config.uniqueness_threshold = -1.0;
  const auto a = FindNetworkMotifsEsu(g, config);
  const auto b = FindNetworkMotifsEsu(g, config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].code, b[i].code);
    EXPECT_EQ(a[i].frequency, b[i].frequency);
    EXPECT_DOUBLE_EQ(a[i].uniqueness, b[i].uniqueness);
  }
}

}  // namespace
}  // namespace lamo
