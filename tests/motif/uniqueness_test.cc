#include "motif/uniqueness.h"

#include <gtest/gtest.h>

#include "graph/canonical.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "motif/miner.h"

namespace lamo {
namespace {

// Sparse background + many planted 4-cycles: the 4-cycle should be unique
// (rewiring destroys most of them), while the single-edge-ish patterns are
// not distinctive.
Graph PlantedSquares(size_t num_squares, size_t background, Rng& rng) {
  GraphBuilder builder(4 * num_squares + background);
  for (size_t s = 0; s < num_squares; ++s) {
    const VertexId base = static_cast<VertexId>(4 * s);
    EXPECT_TRUE(builder.AddEdge(base, base + 1).ok());
    EXPECT_TRUE(builder.AddEdge(base + 1, base + 2).ok());
    EXPECT_TRUE(builder.AddEdge(base + 2, base + 3).ok());
    EXPECT_TRUE(builder.AddEdge(base + 3, base).ok());
  }
  const VertexId offset = static_cast<VertexId>(4 * num_squares);
  for (VertexId v = 0; v + 1 < background; ++v) {
    EXPECT_TRUE(builder.AddEdge(offset + v, offset + v + 1).ok());
  }
  // A few cross links so rewiring has room to scramble.
  for (size_t i = 0; i < num_squares; ++i) {
    const VertexId a = static_cast<VertexId>(rng.Uniform(4 * num_squares));
    const VertexId b =
        offset + static_cast<VertexId>(rng.Uniform(background));
    EXPECT_TRUE(builder.AddEdge(a, b).ok());
  }
  return builder.Build();
}

TEST(UniquenessTest, PlantedPatternScoresHigh) {
  Rng rng(41);
  const Graph g = PlantedSquares(15, 40, rng);

  MinerConfig miner_config;
  miner_config.min_size = 4;
  miner_config.max_size = 4;
  miner_config.min_frequency = 10;
  auto motifs = FrequentSubgraphMiner(g, miner_config).Mine();

  SmallGraph square(4);
  square.AddEdge(0, 1);
  square.AddEdge(1, 2);
  square.AddEdge(2, 3);
  square.AddEdge(3, 0);
  const auto square_code = CanonicalCode(square);

  UniquenessConfig config;
  config.num_random_networks = 10;
  config.swaps_per_edge = 3.0;
  config.seed = 7;
  EvaluateUniqueness(g, config, &motifs);

  bool square_found = false;
  for (const Motif& m : motifs) {
    EXPECT_GE(m.uniqueness, 0.0);
    EXPECT_LE(m.uniqueness, 1.0);
    if (m.code == square_code) {
      square_found = true;
      EXPECT_GE(m.uniqueness, 0.9)
          << "15 planted chordless squares should not survive rewiring";
    }
  }
  EXPECT_TRUE(square_found);
}

TEST(UniquenessTest, FilterUnique) {
  std::vector<Motif> motifs(4);
  motifs[0].uniqueness = 1.0;
  motifs[1].uniqueness = 0.5;
  motifs[2].uniqueness = 0.96;
  motifs[3].uniqueness = -1.0;  // never evaluated: kept
  const auto kept = FilterUnique(std::move(motifs), 0.95);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_DOUBLE_EQ(kept[0].uniqueness, 1.0);
  EXPECT_DOUBLE_EQ(kept[1].uniqueness, 0.96);
  EXPECT_DOUBLE_EQ(kept[2].uniqueness, -1.0);
}

TEST(UniquenessTest, NoRandomNetworksLeavesUnevaluated) {
  Rng rng(42);
  const Graph g = ErdosRenyi(20, 40, rng);
  std::vector<Motif> motifs(1);
  motifs[0].pattern = SmallGraph(3);
  motifs[0].pattern.AddEdge(0, 1);
  motifs[0].pattern.AddEdge(1, 2);
  motifs[0].frequency = 5;
  UniquenessConfig config;
  config.num_random_networks = 0;
  EvaluateUniqueness(g, config, &motifs);
  EXPECT_DOUBLE_EQ(motifs[0].uniqueness, -1.0);
}

TEST(UniquenessTest, FindNetworkMotifsFacade) {
  Rng rng(43);
  const Graph g = PlantedSquares(15, 40, rng);
  MotifFindingConfig config;
  config.miner.min_size = 3;
  config.miner.max_size = 4;
  config.miner.min_frequency = 10;
  config.uniqueness.num_random_networks = 8;
  config.uniqueness.seed = 11;
  config.uniqueness_threshold = 0.9;
  const auto motifs = FindNetworkMotifs(g, config);
  for (const Motif& m : motifs) {
    EXPECT_GE(m.uniqueness, 0.9);
    EXPECT_GE(m.frequency, 10u);
    EXPECT_GE(m.size(), 3u);
    EXPECT_LE(m.size(), 4u);
  }
  EXPECT_FALSE(motifs.empty());
}

TEST(UniquenessTest, NoRandomNetworksKeepsEveryMinedPattern) {
  // Without an ensemble nothing is scored, so the facade must return the
  // miner's patterns unfiltered and unevaluated, as the ESU route does.
  Rng rng(43);
  const Graph g = PlantedSquares(15, 40, rng);
  MotifFindingConfig config;
  config.miner.min_size = 3;
  config.miner.max_size = 4;
  config.miner.min_frequency = 10;
  config.uniqueness.num_random_networks = 0;
  const auto mined = FrequentSubgraphMiner(g, config.miner).Mine();
  ASSERT_FALSE(mined.empty());
  const auto motifs = FindNetworkMotifs(g, config);
  ASSERT_EQ(motifs.size(), mined.size());
  for (size_t i = 0; i < motifs.size(); ++i) {
    EXPECT_EQ(motifs[i].code, mined[i].code) << "motif " << i;
    EXPECT_EQ(motifs[i].frequency, mined[i].frequency) << "motif " << i;
    EXPECT_DOUBLE_EQ(motifs[i].uniqueness, -1.0) << "motif " << i;
  }
}

TEST(UniquenessTest, ReplicateOrderDoesNotChangeVerdict) {
  // The ensemble is a sum of per-replicate indicator vectors, each driven
  // by its own Rng::Stream(seed, r) — so evaluating the replicates in any
  // order (here: reversed, by hand) must reproduce EvaluateUniqueness's
  // scores and verdicts exactly.
  Rng rng(41);
  const Graph g = PlantedSquares(12, 30, rng);

  MinerConfig miner_config;
  miner_config.min_size = 3;
  miner_config.max_size = 4;
  miner_config.min_frequency = 8;
  auto motifs = FrequentSubgraphMiner(g, miner_config).Mine();
  ASSERT_FALSE(motifs.empty());

  UniquenessConfig config;
  config.num_random_networks = 6;
  config.swaps_per_edge = 3.0;
  config.seed = 19;
  EvaluateUniqueness(g, config, &motifs);

  std::vector<size_t> wins(motifs.size(), 0);
  for (size_t r = config.num_random_networks; r-- > 0;) {
    Rng stream = Rng::Stream(config.seed, r);
    const Graph randomized =
        DegreePreservingRewire(g, config.swaps_per_edge, stream);
    for (size_t i = 0; i < motifs.size(); ++i) {
      const size_t random_frequency = CountOccurrences(
          motifs[i].pattern, randomized, motifs[i].frequency + 1);
      if (motifs[i].frequency >= random_frequency) ++wins[i];
    }
  }
  for (size_t i = 0; i < motifs.size(); ++i) {
    const double reversed_uniqueness =
        static_cast<double>(wins[i]) /
        static_cast<double>(config.num_random_networks);
    EXPECT_DOUBLE_EQ(motifs[i].uniqueness, reversed_uniqueness)
        << "motif " << i << " verdict depends on replicate order";
  }
}

TEST(MotifStructTest, ToString) {
  Motif m;
  m.pattern = SmallGraph(3);
  m.pattern.AddEdge(0, 1);
  m.frequency = 7;
  EXPECT_EQ(m.ToString(), "Motif(size=3, edges=1, freq=7)");
  m.uniqueness = 0.5;
  EXPECT_NE(m.ToString().find("uniq=0.5"), std::string::npos);
}

}  // namespace
}  // namespace lamo
