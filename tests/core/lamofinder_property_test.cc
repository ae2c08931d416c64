// Property sweeps over randomized synthetic datasets: invariants that every
// LaMoFinder run must satisfy, parameterized over seeds so regressions in
// any pipeline stage surface across diverse inputs.
#include <algorithm>

#include <gtest/gtest.h>

#include "core/lamofinder.h"
#include "motif/miner.h"
#include "synth/dataset.h"

namespace lamo {
namespace {

struct RunResult {
  SyntheticDataset dataset;
  std::vector<Motif> motifs;
  std::vector<LabeledMotif> labeled;
  LaMoFinderConfig config;
};

RunResult RunPipeline(uint64_t seed) {
  RunResult result;
  SyntheticDatasetConfig dataset_config;
  dataset_config.num_proteins = 350;
  dataset_config.go.num_terms = 60;
  dataset_config.num_templates = 2;
  dataset_config.copies_per_template = 20;
  dataset_config.informative_threshold = 8;
  dataset_config.seed = seed;
  result.dataset = BuildSyntheticDataset(dataset_config);

  MinerConfig miner_config;
  miner_config.min_size = 3;
  miner_config.max_size = 4;
  miner_config.min_frequency = 15;
  result.motifs =
      FrequentSubgraphMiner(result.dataset.ppi, miner_config).Mine();
  for (Motif& m : result.motifs) m.uniqueness = 1.0;

  result.config.sigma = 6;
  result.config.max_occurrences = 120;
  LaMoFinder finder(result.dataset.ontology, result.dataset.weights,
                    result.dataset.informative, result.dataset.annotations);
  result.labeled = finder.LabelAll(result.motifs, result.config);
  return result;
}

class LaMoFinderProperties : public ::testing::TestWithParam<uint64_t> {};

TEST_P(LaMoFinderProperties, EmittedLabelsAreCandidates) {
  const RunResult run = RunPipeline(GetParam());
  for (const LabeledMotif& lm : run.labeled) {
    for (const LabelSet& labels : lm.scheme) {
      for (TermId t : labels) {
        EXPECT_TRUE(run.dataset.informative.IsLabelCandidate(t))
            << "non-candidate label " << run.dataset.ontology.TermName(t);
      }
    }
  }
}

TEST_P(LaMoFinderProperties, FrequenciesMeetSigma) {
  const RunResult run = RunPipeline(GetParam());
  for (const LabeledMotif& lm : run.labeled) {
    EXPECT_GE(lm.frequency, run.config.sigma);
    EXPECT_EQ(lm.frequency, lm.occurrences.size());
  }
}

TEST_P(LaMoFinderProperties, AtLeastHalfVerticesLabeled) {
  const RunResult run = RunPipeline(GetParam());
  for (const LabeledMotif& lm : run.labeled) {
    size_t labeled_vertices = 0;
    for (const LabelSet& labels : lm.scheme) {
      if (!labels.empty()) ++labeled_vertices;
    }
    EXPECT_GE(2 * labeled_vertices, lm.size());
  }
}

TEST_P(LaMoFinderProperties, SchemesConformToOwnOccurrences) {
  const RunResult run = RunPipeline(GetParam());
  for (const LabeledMotif& lm : run.labeled) {
    for (const std::span<const VertexId> occ : lm.occurrences) {
      for (size_t pos = 0; pos < lm.scheme.size(); ++pos) {
        const auto terms =
            run.dataset.annotations.TermsOf(occ[pos]);
        EXPECT_TRUE(LabelsConform(run.dataset.ontology, lm.scheme[pos],
                                  LabelSet(terms.begin(), terms.end())));
      }
    }
  }
}

TEST_P(LaMoFinderProperties, NoSubsumedDuplicates) {
  const RunResult run = RunPipeline(GetParam());
  for (size_t i = 0; i < run.labeled.size(); ++i) {
    for (size_t j = 0; j < run.labeled.size(); ++j) {
      if (i == j) continue;
      const LabeledMotif& a = run.labeled[i];
      const LabeledMotif& b = run.labeled[j];
      if (a.code != b.code || a.frequency != b.frequency) continue;
      // b's scheme must not be a strict per-vertex subset of a's.
      bool subset = true;
      bool equal = true;
      for (size_t pos = 0; pos < a.scheme.size(); ++pos) {
        if (!std::includes(a.scheme[pos].begin(), a.scheme[pos].end(),
                           b.scheme[pos].begin(), b.scheme[pos].end())) {
          subset = false;
        }
        if (a.scheme[pos] != b.scheme[pos]) equal = false;
      }
      EXPECT_FALSE(subset && !equal)
          << "scheme " << j << " subsumed by " << i;
    }
  }
}

TEST_P(LaMoFinderProperties, OccurrencesComeFromSourceOccurrenceSets) {
  const RunResult run = RunPipeline(GetParam());
  for (const LabeledMotif& lm : run.labeled) {
    // Locate the source motif by code.
    const Motif* source = nullptr;
    for (const Motif& m : run.motifs) {
      if (m.code == lm.code) source = &m;
    }
    ASSERT_NE(source, nullptr);
    std::set<std::vector<VertexId>> motif_sets;
    for (const std::span<const VertexId> occ : source->occurrences) {
      std::vector<VertexId> sorted(occ.begin(), occ.end());
      std::sort(sorted.begin(), sorted.end());
      motif_sets.insert(std::move(sorted));
    }
    for (const std::span<const VertexId> occ : lm.occurrences) {
      std::vector<VertexId> sorted(occ.begin(), occ.end());
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(motif_sets.count(sorted) != 0);
    }
  }
}

TEST_P(LaMoFinderProperties, DeterministicAcrossRuns) {
  const RunResult a = RunPipeline(GetParam());
  const RunResult b = RunPipeline(GetParam());
  ASSERT_EQ(a.labeled.size(), b.labeled.size());
  for (size_t i = 0; i < a.labeled.size(); ++i) {
    EXPECT_EQ(a.labeled[i].scheme, b.labeled[i].scheme);
    EXPECT_EQ(a.labeled[i].frequency, b.labeled[i].frequency);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LaMoFinderProperties,
                         ::testing::Values(11, 222, 3333));

}  // namespace
}  // namespace lamo
