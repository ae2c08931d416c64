#include "motif/directed_motifs.h"

#include <gtest/gtest.h>

#include "motif/esu.h"
#include "synth/grn_generator.h"

namespace lamo {
namespace {

DiGraph SmallGrn(Rng& rng, size_t genes, size_t arcs) {
  DiGraphBuilder b(genes);
  for (size_t i = 0; i < arcs; ++i) {
    const VertexId s = static_cast<VertexId>(rng.Uniform(genes / 5));
    const VertexId t = static_cast<VertexId>(rng.Uniform(genes));
    EXPECT_TRUE(b.AddArc(s, t).ok());
  }
  return b.Build();
}

TEST(ArcSwapRewireTest, PreservesInOutDegrees) {
  Rng rng(71);
  const DiGraph g = SmallGrn(rng, 100, 300);
  const DiGraph rewired = ArcSwapRewire(g, 3.0, rng);
  EXPECT_EQ(rewired.num_arcs(), g.num_arcs());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(rewired.OutDegree(v), g.OutDegree(v)) << v;
    EXPECT_EQ(rewired.InDegree(v), g.InDegree(v)) << v;
  }
}

TEST(ArcSwapRewireTest, ChangesArcs) {
  Rng rng(72);
  const DiGraph g = SmallGrn(rng, 100, 300);
  const DiGraph rewired = ArcSwapRewire(g, 3.0, rng);
  EXPECT_NE(rewired.Arcs(), g.Arcs());
}

TEST(DirectedClassesTest, CountsMatchEnumeration) {
  Rng rng(73);
  const DiGraph g = SmallGrn(rng, 60, 150);
  const auto classes = CountDirectedSubgraphClasses(g, 3);
  size_t total = 0;
  for (const auto& [code, count] : classes) total += count;
  // The total must equal the number of weakly-connected triples.
  size_t triples = 0;
  const Graph underlying = g.Underlying();
  EnumerateConnectedSubgraphs(underlying, 3,
                              [&](const std::vector<VertexId>&) {
                                ++triples;
                                return true;
                              });
  EXPECT_EQ(total, triples);
  EXPECT_GT(classes.size(), 1u);
}

TEST(DirectedMotifsTest, RecoversPlantedFfl) {
  GrnConfig config;
  config.num_genes = 300;
  config.background_arcs = 500;
  config.planted_ffls = 40;
  config.seed = 7;
  const GrnDataset dataset = BuildGrnDataset(config);

  DirectedMotifConfig motif_config;
  motif_config.size = 3;
  motif_config.min_frequency = 20;
  motif_config.num_random_networks = 8;
  motif_config.uniqueness_threshold = 0.9;
  motif_config.seed = 11;
  const auto motifs = FindDirectedNetworkMotifs(dataset.grn, motif_config);

  SmallDigraph ffl(3);
  ffl.AddArc(0, 1);
  ffl.AddArc(0, 2);
  ffl.AddArc(1, 2);
  const auto ffl_code = DirectedCanonicalCode(ffl);
  bool found = false;
  for (const DirectedMotif& m : motifs) {
    if (m.as_motif.code == ffl_code) {
      found = true;
      EXPECT_GE(m.as_motif.frequency, 40u);
      EXPECT_GE(m.as_motif.uniqueness, 0.9);
    }
  }
  EXPECT_TRUE(found) << "the planted feed-forward loop must be a motif";
}

TEST(DirectedMotifsTest, OccurrencesAlignedToDirectedCanonicalOrder) {
  GrnConfig config;
  config.num_genes = 200;
  config.background_arcs = 300;
  config.planted_ffls = 25;
  config.seed = 13;
  const GrnDataset dataset = BuildGrnDataset(config);

  DirectedMotifConfig motif_config;
  motif_config.size = 3;
  motif_config.min_frequency = 10;
  motif_config.num_random_networks = 0;  // keep everything
  motif_config.uniqueness_threshold = 0.0;
  const auto motifs = FindDirectedNetworkMotifs(dataset.grn, motif_config);
  ASSERT_FALSE(motifs.empty());
  for (const DirectedMotif& m : motifs) {
    for (const std::span<const VertexId> occ : m.as_motif.occurrences) {
      // The induced digraph at the aligned positions must match the
      // canonical pattern arc for arc.
      for (uint32_t a = 0; a < 3; ++a) {
        for (uint32_t b = 0; b < 3; ++b) {
          if (a == b) continue;
          EXPECT_EQ(m.pattern.HasArc(a, b),
                    dataset.grn.HasArc(occ[a], occ[b]));
        }
      }
    }
  }
}

TEST(DirectedMotifsTest, SymmetricSetsOverridePopulated) {
  GrnConfig config;
  config.num_genes = 150;
  config.background_arcs = 250;
  config.planted_ffls = 15;
  const GrnDataset dataset = BuildGrnDataset(config);
  DirectedMotifConfig motif_config;
  motif_config.size = 3;
  motif_config.min_frequency = 5;
  motif_config.num_random_networks = 0;
  const auto motifs = FindDirectedNetworkMotifs(dataset.grn, motif_config);
  for (const DirectedMotif& m : motifs) {
    size_t covered = 0;
    for (const auto& cls : m.as_motif.symmetric_sets_override) {
      covered += cls.size();
    }
    EXPECT_EQ(covered, 3u) << "override must partition the vertices";
  }
}

TEST(GrnGeneratorTest, ShapeAndReproducibility) {
  GrnConfig config;
  config.num_genes = 250;
  const GrnDataset a = BuildGrnDataset(config);
  const GrnDataset b = BuildGrnDataset(config);
  EXPECT_EQ(a.grn.Arcs(), b.grn.Arcs());
  EXPECT_EQ(a.ffls.size(), config.planted_ffls);
  for (const auto& ffl : a.ffls) {
    EXPECT_TRUE(a.grn.HasArc(ffl[0], ffl[1]));
    EXPECT_TRUE(a.grn.HasArc(ffl[0], ffl[2]));
    EXPECT_TRUE(a.grn.HasArc(ffl[1], ffl[2]));
  }
  EXPECT_GT(a.annotations.CountAnnotated(), 150u);
}

}  // namespace
}  // namespace lamo
