#include "ontology/similarity.h"

#include <cmath>

#include <gtest/gtest.h>

#include "ontology/informative.h"

namespace lamo {
namespace {

// root(20 direct) -> a(40), b(40); a -> a1(50); b -> b1(50); shared child
// s with parents a and b (0 direct... give 10). Total occurrences = 210.
struct Fixture {
  Ontology onto;
  AnnotationTable annotations{0};
  TermWeights weights;
  TermId root, a, b, a1, b1, s;
};

Fixture MakeFixture() {
  Fixture f;
  OntologyBuilder builder;
  f.root = builder.AddTerm("root");
  f.a = builder.AddTerm("a");
  f.b = builder.AddTerm("b");
  f.a1 = builder.AddTerm("a1");
  f.b1 = builder.AddTerm("b1");
  f.s = builder.AddTerm("s");
  EXPECT_TRUE(builder.AddRelation(f.a, f.root, RelationType::kIsA).ok());
  EXPECT_TRUE(builder.AddRelation(f.b, f.root, RelationType::kIsA).ok());
  EXPECT_TRUE(builder.AddRelation(f.a1, f.a, RelationType::kIsA).ok());
  EXPECT_TRUE(builder.AddRelation(f.b1, f.b, RelationType::kIsA).ok());
  EXPECT_TRUE(builder.AddRelation(f.s, f.a, RelationType::kIsA).ok());
  EXPECT_TRUE(builder.AddRelation(f.s, f.b, RelationType::kPartOf).ok());
  auto built = builder.Build();
  EXPECT_TRUE(built.ok());
  f.onto = std::move(built).value();

  const std::vector<std::pair<TermId, size_t>> direct = {
      {f.root, 20}, {f.a, 40}, {f.b, 40}, {f.a1, 50}, {f.b1, 50}, {f.s, 10}};
  size_t total = 0;
  for (const auto& [t, c] : direct) total += c;
  f.annotations = AnnotationTable(total);
  ProteinId next = 0;
  for (const auto& [t, c] : direct) {
    for (size_t i = 0; i < c; ++i) {
      EXPECT_TRUE(f.annotations.Annotate(next++, t).ok());
    }
  }
  f.weights = TermWeights::Compute(f.onto, f.annotations);
  return f;
}

TEST(WeightsTest, RootWeighsOne) {
  const Fixture f = MakeFixture();
  EXPECT_DOUBLE_EQ(f.weights.Weight(f.root), 1.0);
  EXPECT_DOUBLE_EQ(f.weights.LogWeight(f.root), 0.0);
}

TEST(WeightsTest, DescendantOccurrencesIncluded) {
  const Fixture f = MakeFixture();
  // a's closure: a(40) + a1(50) + s(10) = 100 of 210.
  EXPECT_NEAR(f.weights.Weight(f.a), 100.0 / 210.0, 1e-12);
  EXPECT_NEAR(f.weights.Weight(f.a1), 50.0 / 210.0, 1e-12);
  EXPECT_NEAR(f.weights.Weight(f.s), 10.0 / 210.0, 1e-12);
}

TEST(WeightsTest, MonotoneUpward) {
  const Fixture f = MakeFixture();
  // A parent's weight is at least each child's weight.
  for (TermId t = 0; t < f.onto.num_terms(); ++t) {
    for (TermId p : f.onto.Parents(t)) {
      EXPECT_GE(f.weights.Weight(p), f.weights.Weight(t));
    }
  }
}

TEST(SimilarityTest, IdenticalTermsScoreOne) {
  const Fixture f = MakeFixture();
  TermSimilarity st(f.onto, f.weights);
  EXPECT_DOUBLE_EQ(st.Similarity(f.a1, f.a1), 1.0);
  EXPECT_DOUBLE_EQ(st.Similarity(f.root, f.root), 1.0);
}

TEST(SimilarityTest, RootOnlyCommonAncestorScoresZero) {
  const Fixture f = MakeFixture();
  TermSimilarity st(f.onto, f.weights);
  // a1 and b1 share only the root.
  EXPECT_DOUBLE_EQ(st.Similarity(f.a1, f.b1), 0.0);
}

TEST(SimilarityTest, LinFormulaValue) {
  const Fixture f = MakeFixture();
  TermSimilarity st(f.onto, f.weights);
  // a1 vs s: common ancestors {a, root}; lowest = a.
  const double expected = 2.0 * std::log(f.weights.Weight(f.a)) /
                          (std::log(f.weights.Weight(f.a1)) +
                           std::log(f.weights.Weight(f.s)));
  EXPECT_NEAR(st.Similarity(f.a1, f.s), expected, 1e-12);
  EXPECT_GT(st.Similarity(f.a1, f.s), 0.0);
  EXPECT_LT(st.Similarity(f.a1, f.s), 1.0);
}

TEST(SimilarityTest, LowestCommonParentPicksMostInformative) {
  const Fixture f = MakeFixture();
  TermSimilarity st(f.onto, f.weights);
  EXPECT_EQ(st.LowestCommonParent(f.a1, f.s), f.a);
  EXPECT_EQ(st.LowestCommonParent(f.a1, f.b1), f.root);
  EXPECT_EQ(st.LowestCommonParent(f.a1, f.a1), f.a1);
  // s has two parents; with b1 the common ancestry goes through b.
  EXPECT_EQ(st.LowestCommonParent(f.s, f.b1), f.b);
}

TEST(SimilarityTest, Symmetric) {
  const Fixture f = MakeFixture();
  TermSimilarity st(f.onto, f.weights);
  const double ab = st.Similarity(f.a1, f.s);
  const double ba = st.Similarity(f.s, f.a1);
  EXPECT_DOUBLE_EQ(ab, ba);
}

TEST(SimilarityTest, AncestorDescendantHigherThanCousins) {
  const Fixture f = MakeFixture();
  TermSimilarity st(f.onto, f.weights);
  EXPECT_GT(st.Similarity(f.a, f.a1), st.Similarity(f.a1, f.b1));
}

TEST(SimilarityTest, DisjointRootsScoreZero) {
  OntologyBuilder builder;
  const TermId r1 = builder.AddTerm("r1");
  const TermId r2 = builder.AddTerm("r2");
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  AnnotationTable table(2);
  ASSERT_TRUE(table.Annotate(0, r1).ok());
  ASSERT_TRUE(table.Annotate(1, r2).ok());
  const TermWeights w = TermWeights::Compute(*built, table);
  TermSimilarity st(*built, w);
  EXPECT_DOUBLE_EQ(st.Similarity(r1, r2), 0.0);
}

TEST(InformativeTest, ThresholdRule) {
  const Fixture f = MakeFixture();
  InformativeConfig config;
  config.min_direct_proteins = 40;
  const auto classes =
      InformativeClasses::Compute(f.onto, f.annotations, config);
  EXPECT_TRUE(classes.IsInformative(f.a));
  EXPECT_TRUE(classes.IsInformative(f.a1));
  EXPECT_FALSE(classes.IsInformative(f.s));
  EXPECT_FALSE(classes.IsInformative(f.root));
}

TEST(InformativeTest, BorderExcludesDominatedTerms) {
  const Fixture f = MakeFixture();
  InformativeConfig config;
  config.min_direct_proteins = 40;
  const auto classes =
      InformativeClasses::Compute(f.onto, f.annotations, config);
  // a is informative with no informative ancestor -> border.
  EXPECT_TRUE(classes.IsBorderInformative(f.a));
  // a1 is informative but sits under informative a -> not border.
  EXPECT_FALSE(classes.IsBorderInformative(f.a1));
  EXPECT_EQ(classes.BorderInformative(),
            (std::vector<TermId>{f.a, f.b}));
}

TEST(InformativeTest, LabelCandidates) {
  const Fixture f = MakeFixture();
  InformativeConfig config;
  config.min_direct_proteins = 40;
  const auto classes =
      InformativeClasses::Compute(f.onto, f.annotations, config);
  EXPECT_TRUE(classes.IsLabelCandidate(f.a));
  EXPECT_TRUE(classes.IsLabelCandidate(f.a1));  // descendant of border a
  EXPECT_TRUE(classes.IsLabelCandidate(f.s));   // descendant of border a, b
  EXPECT_FALSE(classes.IsLabelCandidate(f.root));
}

}  // namespace
}  // namespace lamo
