#include "core/lamofinder.h"

#include <gtest/gtest.h>

#include "core/kmedoids_baseline.h"
#include "core/paper_example.h"
#include "graph/canonical.h"

namespace lamo {
namespace {

class LaMoFinderTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    example_ = new PaperExample(MakePaperExample());
    finder_ = new LaMoFinder(example_->ontology, example_->weights,
                             example_->informative,
                             example_->protein_annotations);
  }
  static void TearDownTestSuite() {
    delete finder_;
    delete example_;
  }

  // The fixture's motif with its four occurrences as a Motif value.
  static Motif PaperMotif() {
    Motif motif;
    motif.pattern = example_->motif;
    motif.code = CanonicalCode(example_->motif);
    motif.occurrences = OccurrenceList(example_->motif.num_vertices());
    for (const auto& occ : example_->occurrences) {
      motif.occurrences.push_back(occ);
    }
    motif.frequency = motif.occurrences.size();
    motif.uniqueness = 1.0;
    return motif;
  }

  static PaperExample* example_;
  static LaMoFinder* finder_;
};

PaperExample* LaMoFinderTest::example_ = nullptr;
LaMoFinder* LaMoFinderTest::finder_ = nullptr;

TEST_F(LaMoFinderTest, LabelsPaperMotif) {
  LaMoFinderConfig config;
  config.sigma = 2;  // four occurrences total in the toy example
  config.min_similarity = 0.3;
  const auto labeled = finder_->LabelMotif(PaperMotif(), config);
  ASSERT_FALSE(labeled.empty());
  for (const auto& lm : labeled) {
    EXPECT_GE(lm.frequency, config.sigma);
    EXPECT_EQ(lm.scheme.size(), 4u);
    EXPECT_EQ(lm.occurrences.size(), lm.frequency);
  }
}

TEST_F(LaMoFinderTest, SchemesUseOnlyLabelCandidatesOrFallback) {
  LaMoFinderConfig config;
  config.sigma = 2;
  config.min_similarity = 0.3;
  for (const auto& lm : finder_->LabelMotif(PaperMotif(), config)) {
    for (const LabelSet& labels : lm.scheme) {
      for (TermId t : labels) {
        EXPECT_LT(t, example_->ontology.num_terms());
      }
    }
  }
}

TEST_F(LaMoFinderTest, EmittedSchemesConformToTheirOccurrences) {
  LaMoFinderConfig config;
  config.sigma = 2;
  config.min_similarity = 0.3;
  for (const auto& lm : finder_->LabelMotif(PaperMotif(), config)) {
    for (const std::span<const VertexId> occ : lm.occurrences) {
      for (size_t pos = 0; pos < lm.scheme.size(); ++pos) {
        const auto terms =
            example_->protein_annotations.TermsOf(occ[pos]);
        EXPECT_TRUE(LabelsConform(example_->ontology, lm.scheme[pos],
                                  LabelSet(terms.begin(), terms.end())))
            << "scheme " << lm.SchemeToString(example_->ontology)
            << " position " << pos;
      }
    }
  }
}

TEST_F(LaMoFinderTest, SigmaFiltersSchemes) {
  LaMoFinderConfig config;
  config.sigma = 5;  // more than the 4 available occurrences
  config.min_similarity = 0.0;
  EXPECT_TRUE(finder_->LabelMotif(PaperMotif(), config).empty());
}

TEST_F(LaMoFinderTest, ConformingOccurrencesHonorsSymmetry) {
  // A scheme matching o1 only under the flipped {v2,v4} pairing must still
  // count o1 as conforming.
  const Motif motif = PaperMotif();
  LabelProfile scheme(4);
  // o1 = (P1, P2, P3, P4): P4 has {G07, G09}, P2 has {G03, G10}. A scheme
  // putting G09 at position 1 conforms only after swapping positions 1 / 3.
  scheme[1] = {example_->term("G09")};
  const auto conforming = finder_->ConformingOccurrences(motif, scheme);
  bool found_o1 = false;
  for (const auto& occ : conforming) {
    if (occ[1] == example_->protein(4)) found_o1 = true;
  }
  EXPECT_TRUE(found_o1);
}

TEST_F(LaMoFinderTest, ConformingOccurrenceCountAtLeastClusterSize) {
  LaMoFinderConfig config;
  config.sigma = 2;
  config.min_similarity = 0.3;
  const Motif motif = PaperMotif();
  for (const auto& lm : finder_->LabelMotif(motif, config)) {
    EXPECT_EQ(lm.frequency,
              finder_->ConformingOccurrences(motif, lm.scheme).size());
  }
}

TEST_F(LaMoFinderTest, EmptyMotifYieldsNothing) {
  Motif empty;
  empty.pattern = SmallGraph(0);
  LaMoFinderConfig config;
  EXPECT_TRUE(finder_->LabelMotif(empty, config).empty());
}

TEST_F(LaMoFinderTest, LabelAllComputesStrengths) {
  LaMoFinderConfig config;
  config.sigma = 2;
  config.min_similarity = 0.3;
  const auto labeled = finder_->LabelAll({PaperMotif()}, config);
  ASSERT_FALSE(labeled.empty());
  double max_strength = 0.0;
  for (const auto& lm : labeled) {
    EXPECT_GE(lm.strength, 0.0);
    EXPECT_LE(lm.strength, 1.0);
    max_strength = std::max(max_strength, lm.strength);
  }
  EXPECT_DOUBLE_EQ(max_strength, 1.0)
      << "the best motif of a size class has LMS 1";
}

TEST_F(LaMoFinderTest, MaxOccurrencesCapStillLabels) {
  LaMoFinderConfig config;
  config.sigma = 2;
  config.min_similarity = 0.3;
  config.max_occurrences = 3;  // force the strided sample path
  const auto labeled = finder_->LabelMotif(PaperMotif(), config);
  for (const auto& lm : labeled) {
    EXPECT_GE(lm.frequency, config.sigma);
  }
}

TEST_F(LaMoFinderTest, KMedoidsBaselineProducesDisjointSchemes) {
  KMedoidsConfig config;
  config.sigma = 2;
  config.k = 2;
  const auto labeled = LabelMotifKMedoids(
      example_->ontology, example_->weights, example_->informative,
      example_->protein_annotations, PaperMotif(), config);
  // Disjoint partition of 4 occurrences: total membership <= 4.
  size_t total = 0;
  for (const auto& lm : labeled) total += lm.occurrences.size();
  EXPECT_LE(total, 4u);
}

TEST_F(LaMoFinderTest, ComputeMotifStrengthsPerSizeClass) {
  std::vector<LabeledMotif> motifs(3);
  motifs[0].pattern = SmallGraph(3);
  motifs[0].frequency = 10;
  motifs[0].uniqueness = 1.0;
  motifs[1].pattern = SmallGraph(3);
  motifs[1].frequency = 5;
  motifs[1].uniqueness = 1.0;
  motifs[2].pattern = SmallGraph(4);
  motifs[2].frequency = 2;
  motifs[2].uniqueness = 0.5;
  ComputeMotifStrengths(&motifs);
  EXPECT_DOUBLE_EQ(motifs[0].strength, 1.0);
  EXPECT_DOUBLE_EQ(motifs[1].strength, 0.5);
  EXPECT_DOUBLE_EQ(motifs[2].strength, 1.0);  // alone in its size class
}

}  // namespace
}  // namespace lamo
