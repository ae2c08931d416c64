#include "motif/esu_finder.h"

#include <gtest/gtest.h>

#include "graph/canonical.h"
#include "graph/generators.h"
#include "motif/miner.h"

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
  esu_config.num_random_networks = 0;  // keep everything
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
  config.num_random_networks = 0;
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
  config.num_random_networks = 10;
  config.uniqueness_threshold = 0.9;
  config.seed = 3;
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

TEST(EsuFinderTest, Deterministic) {
  Rng rng(94);
  const Graph g = BarabasiAlbert(60, 2, rng);
  EsuMotifConfig config;
  config.size = 3;
  config.min_frequency = 5;
  config.num_random_networks = 4;
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
