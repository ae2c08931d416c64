// Pins the Motif::symmetric_sets_override path: when a motif carries
// explicit symmetric sets (as directed motifs do), LaMoFinder's pairing and
// conformance honor them instead of the undirected pattern's twin classes.
#include <gtest/gtest.h>

#include "core/lamofinder.h"
#include "core/paper_example.h"
#include "graph/canonical.h"

namespace lamo {
namespace {

class SymmetricOverrideTest : public ::testing::Test {
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
  static Motif PaperMotif() {
    Motif motif;
    motif.pattern = example_->motif;  // the 4-cycle
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

PaperExample* SymmetricOverrideTest::example_ = nullptr;
LaMoFinder* SymmetricOverrideTest::finder_ = nullptr;

TEST_F(SymmetricOverrideTest, AllSingletonOverrideForbidsRealignment) {
  // A scheme that fits occurrence o1 only after swapping positions 1/3:
  // with the 4-cycle's natural twin classes it conforms; with an
  // all-singleton override (as an asymmetric directed version would have)
  // the swap is no longer allowed.
  Motif natural = PaperMotif();
  LabelProfile scheme(4);
  scheme[1] = {example_->term("G09")};  // P4's annotation, at position 3

  const size_t with_symmetry =
      finder_->ConformingOccurrences(natural, scheme).size();

  Motif rigid = PaperMotif();
  rigid.symmetric_sets_override = {{0}, {1}, {2}, {3}};
  const size_t without_symmetry =
      finder_->ConformingOccurrences(rigid, scheme).size();

  EXPECT_GT(with_symmetry, without_symmetry);
}

TEST_F(SymmetricOverrideTest, FullOverrideMatchesNaturalTwins) {
  // Supplying exactly the pattern's twin classes must reproduce the
  // default behavior.
  Motif natural = PaperMotif();
  Motif explicit_sets = PaperMotif();
  explicit_sets.symmetric_sets_override = {{0, 2}, {1, 3}};

  LaMoFinderConfig config;
  config.sigma = 2;
  config.min_similarity = 0.3;
  const auto a = finder_->LabelMotif(natural, config);
  const auto b = finder_->LabelMotif(explicit_sets, config);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].scheme, b[i].scheme);
    EXPECT_EQ(a[i].frequency, b[i].frequency);
  }
}

TEST_F(SymmetricOverrideTest, LabelingRunsWithSingletonOverride) {
  Motif rigid = PaperMotif();
  rigid.symmetric_sets_override = {{0}, {1}, {2}, {3}};
  LaMoFinderConfig config;
  config.sigma = 2;
  config.min_similarity = 0.0;
  const auto labeled = finder_->LabelMotif(rigid, config);
  for (const auto& lm : labeled) {
    EXPECT_GE(lm.frequency, 2u);
  }
}

}  // namespace
}  // namespace lamo
