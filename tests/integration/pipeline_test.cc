// End-to-end pipeline test: synthetic dataset -> motif mining + uniqueness
// -> LaMoFinder labeling -> function prediction, on a small instance so the
// whole paper pipeline runs in seconds.
#include <gtest/gtest.h>

#include "core/lamofinder.h"
#include "motif/uniqueness.h"
#include "predict/dataset_context.h"
#include "predict/evaluation.h"
#include "predict/labeled_motif_predictor.h"
#include "predict/neighbor_counting.h"
#include "synth/dataset.h"

namespace lamo {
namespace {

class PipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    SyntheticDatasetConfig config;
    config.num_proteins = 500;
    config.go.num_terms = 70;
    config.go.depth = 5;
    config.num_templates = 3;
    config.copies_per_template = 30;
    config.template_min_size = 3;
    config.template_max_size = 4;
    config.informative_threshold = 10;
    config.seed = 4242;
    dataset_ = new SyntheticDataset(BuildSyntheticDataset(config));

    MotifFindingConfig motif_config;
    motif_config.miner.min_size = 3;
    motif_config.miner.max_size = 4;
    motif_config.miner.min_frequency = 25;
    motif_config.miner.max_occurrences_per_pattern = 5000;
    motif_config.uniqueness.num_random_networks = 5;
    motif_config.uniqueness_threshold = 0.0;  // keep all frequent patterns
    motifs_ = new std::vector<Motif>(
        FindNetworkMotifs(dataset_->ppi, motif_config));

    finder_ = new LaMoFinder(dataset_->ontology, dataset_->weights,
                             dataset_->informative, dataset_->annotations);
    LaMoFinderConfig label_config;
    label_config.sigma = 8;
    label_config.max_occurrences = 150;
    labeled_ = new std::vector<LabeledMotif>(
        finder_->LabelAll(*motifs_, label_config));
  }
  static void TearDownTestSuite() {
    delete labeled_;
    delete finder_;
    delete motifs_;
    delete dataset_;
  }

  static SyntheticDataset* dataset_;
  static std::vector<Motif>* motifs_;
  static LaMoFinder* finder_;
  static std::vector<LabeledMotif>* labeled_;
};

SyntheticDataset* PipelineTest::dataset_ = nullptr;
std::vector<Motif>* PipelineTest::motifs_ = nullptr;
LaMoFinder* PipelineTest::finder_ = nullptr;
std::vector<LabeledMotif>* PipelineTest::labeled_ = nullptr;

TEST_F(PipelineTest, MinerFindsFrequentPatterns) {
  ASSERT_FALSE(motifs_->empty());
  for (const Motif& m : *motifs_) {
    EXPECT_GE(m.frequency, 25u);
    EXPECT_TRUE(m.pattern.IsConnected());
  }
}

TEST_F(PipelineTest, LabelerProducesSchemes) {
  ASSERT_FALSE(labeled_->empty());
  for (const LabeledMotif& lm : *labeled_) {
    EXPECT_GE(lm.frequency, 8u);
    EXPECT_EQ(lm.scheme.size(), lm.pattern.num_vertices());
    EXPECT_GE(lm.strength, 0.0);
    EXPECT_LE(lm.strength, 1.0);
  }
}

TEST_F(PipelineTest, SchemesConformToTheirOccurrences) {
  for (const LabeledMotif& lm : *labeled_) {
    for (const std::span<const VertexId> occ : lm.occurrences) {
      for (size_t pos = 0; pos < lm.scheme.size(); ++pos) {
        const auto terms =
            dataset_->annotations.TermsOf(occ[pos]);
        EXPECT_TRUE(LabelsConform(dataset_->ontology, lm.scheme[pos],
                                  LabelSet(terms.begin(), terms.end())));
      }
    }
  }
}

TEST_F(PipelineTest, PredictionPipelineRuns) {
  const PredictionContext context = BuildPredictionContext(*dataset_);
  LabeledMotifPredictor motif_predictor(context, dataset_->ontology,
                                        *labeled_);
  NeighborCountingPredictor nc(context);

  EXPECT_GT(motif_predictor.CoverageOfAnnotated(), 0.1)
      << "labeled motifs should cover a nontrivial protein fraction";

  // Evaluate on motif-covered annotated proteins.
  EvaluationConfig eval_config;
  for (ProteinId p = 0; p < dataset_->ppi.num_vertices(); ++p) {
    if (context.IsAnnotated(p) && motif_predictor.Covers(p)) {
      eval_config.evaluation_set.push_back(p);
    }
  }
  ASSERT_GT(eval_config.evaluation_set.size(), 20u);

  const PrCurve motif_curve =
      EvaluateLeaveOneOut(motif_predictor, context, eval_config);
  const PrCurve nc_curve = EvaluateLeaveOneOut(nc, context, eval_config);
  ASSERT_FALSE(motif_curve.points.empty());
  // Sanity: both curves are proper PR curves.
  for (const PrPoint& point : motif_curve.points) {
    EXPECT_GE(point.precision, 0.0);
    EXPECT_LE(point.precision, 1.0);
    EXPECT_GE(point.recall, 0.0);
    EXPECT_LE(point.recall, 1.0);
  }
  // The motif predictor must materially beat random: with 13 categories a
  // random top-1 precision is ~ prior level. Demand a healthy margin.
  EXPECT_GT(motif_curve.points[0].precision, 0.3);
  (void)nc_curve;
}

TEST_F(PipelineTest, StrengthNormalizedPerSizeClass) {
  std::map<size_t, double> max_strength;
  for (const LabeledMotif& lm : *labeled_) {
    auto [it, inserted] = max_strength.emplace(lm.size(), lm.strength);
    if (!inserted) it->second = std::max(it->second, lm.strength);
  }
  for (const auto& [size, strength] : max_strength) {
    EXPECT_NEAR(strength, 1.0, 1e-9) << "size " << size;
  }
}

}  // namespace
}  // namespace lamo
