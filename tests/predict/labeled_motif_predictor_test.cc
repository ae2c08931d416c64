#include "predict/labeled_motif_predictor.h"

#include <gtest/gtest.h>

namespace lamo {
namespace {

// Ontology: root -> cat1, cat2; cat1 -> leaf1; cat2 -> leaf2.
Ontology MakeCategoryOntology(TermId* cat1, TermId* cat2, TermId* leaf1,
                              TermId* leaf2) {
  OntologyBuilder builder;
  const TermId root = builder.AddTerm("root");
  *cat1 = builder.AddTerm("cat1");
  *cat2 = builder.AddTerm("cat2");
  *leaf1 = builder.AddTerm("leaf1");
  *leaf2 = builder.AddTerm("leaf2");
  EXPECT_TRUE(builder.AddRelation(*cat1, root, RelationType::kIsA).ok());
  EXPECT_TRUE(builder.AddRelation(*cat2, root, RelationType::kIsA).ok());
  EXPECT_TRUE(builder.AddRelation(*leaf1, *cat1, RelationType::kIsA).ok());
  EXPECT_TRUE(builder.AddRelation(*leaf2, *cat2, RelationType::kIsA).ok());
  auto built = builder.Build();
  EXPECT_TRUE(built.ok());
  return std::move(built).value();
}

// Motif: edge pattern (2 vertices). Occurrences pair proteins so that
// vertex 0 is always played by a cat1 protein and vertex 1 by a cat2
// protein; the scheme labels vertex 0 leaf1 and vertex 1 leaf2.
struct MotifFixture {
  Graph ppi;
  Ontology ontology;
  TermId cat1 = 0, cat2 = 0, leaf1 = 0, leaf2 = 0;
  PredictionContext context;
  std::vector<LabeledMotif> motifs;

  MotifFixture() {
    ontology = MakeCategoryOntology(&cat1, &cat2, &leaf1, &leaf2);
    GraphBuilder builder(8);
    EXPECT_TRUE(builder.AddEdge(0, 4).ok());
    EXPECT_TRUE(builder.AddEdge(1, 5).ok());
    EXPECT_TRUE(builder.AddEdge(2, 6).ok());
    EXPECT_TRUE(builder.AddEdge(3, 7).ok());
    ppi = builder.Build();
    context.ppi = &ppi;
    context.categories = {cat1, cat2};
    context.protein_categories = {
        {cat1}, {cat1}, {cat1}, {cat1},  // proteins 0-3 play vertex 0
        {cat2}, {cat2}, {cat2}, {},      // 4-6 play vertex 1; 7 unannotated
    };

    LabeledMotif motif;
    motif.pattern = SmallGraph(2);
    motif.pattern.AddEdge(0, 1);
    motif.scheme.resize(2);
    motif.scheme[0] = {leaf1};
    motif.scheme[1] = {leaf2};
    motif.occurrences = OccurrenceList(2);
    for (VertexId p = 0; p < 4; ++p) motif.occurrences.push_back({p, p + 4});
    motif.frequency = 4;
    motif.uniqueness = 1.0;
    motif.strength = 1.0;
    motifs.push_back(std::move(motif));
  }
};

TEST(LabeledMotifPredictorTest, SchemeLabelsVoteTheirCategory) {
  MotifFixture f;
  LabeledMotifPredictor predictor(f.context, f.ontology, f.motifs);
  // Protein 0 plays vertex 0, labeled leaf1 (under cat1).
  const auto predictions = predictor.Predict(0);
  ASSERT_EQ(predictions.size(), 2u);
  EXPECT_EQ(predictions[0].category, f.cat1);
  EXPECT_DOUBLE_EQ(predictions[0].score, 1.0);
  EXPECT_DOUBLE_EQ(predictions[1].score, 0.0);
  // Protein 4 plays vertex 1 -> cat2.
  EXPECT_EQ(predictor.Predict(4)[0].category, f.cat2);
}

TEST(LabeledMotifPredictorTest, TooGeneralLabelsVoteNothing) {
  MotifFixture f;
  // Relabel vertex 0 with the root: above every category.
  f.motifs[0].scheme[0] = {f.ontology.FindTerm("root")};
  LabeledMotifPredictor predictor(f.context, f.ontology, f.motifs);
  for (const Prediction& p : predictor.Predict(0)) {
    EXPECT_DOUBLE_EQ(p.score, 0.0);
  }
}

TEST(LabeledMotifPredictorTest, CategoryItselfAsLabelVotes) {
  MotifFixture f;
  f.motifs[0].scheme[0] = {f.cat1};
  LabeledMotifPredictor predictor(f.context, f.ontology, f.motifs);
  EXPECT_EQ(predictor.Predict(0)[0].category, f.cat1);
}

TEST(LabeledMotifPredictorTest, OccurrenceModePredictsFromCorresponding) {
  MotifFixture f;
  LabeledMotifPredictor predictor(
      f.context, f.ontology, f.motifs,
      LabeledMotifPredictor::DeltaMode::kOccurrenceProteins);
  const auto predictions = predictor.Predict(0);
  ASSERT_EQ(predictions.size(), 2u);
  EXPECT_EQ(predictions[0].category, f.cat1);
  EXPECT_DOUBLE_EQ(predictions[0].score, 1.0);
}

TEST(LabeledMotifPredictorTest, OccurrenceModeLeaveOneOutExcludesSelf) {
  MotifFixture f;
  // Make protein 0 the only cat2 player of vertex 0: its own label must not
  // leak into its occurrence-mode prediction.
  f.context.protein_categories[0] = {f.cat2};
  LabeledMotifPredictor predictor(
      f.context, f.ontology, f.motifs,
      LabeledMotifPredictor::DeltaMode::kOccurrenceProteins);
  EXPECT_EQ(predictor.Predict(0)[0].category, f.cat1);
}

TEST(LabeledMotifPredictorTest, CoverageReporting) {
  MotifFixture f;
  LabeledMotifPredictor predictor(f.context, f.ontology, f.motifs);
  EXPECT_TRUE(predictor.Covers(0));
  EXPECT_TRUE(predictor.Covers(7));
  EXPECT_DOUBLE_EQ(predictor.CoverageOfAnnotated(), 1.0);
}

TEST(LabeledMotifPredictorTest, UncoveredProteinScoresFlat) {
  MotifFixture f;
  // Keep the first three occurrences: proteins 3 and 7 then sit nowhere.
  OccurrenceList first3(2);
  for (size_t i = 0; i < 3; ++i) first3.push_back(f.motifs[0].occurrences[i]);
  f.motifs[0].occurrences = std::move(first3);
  f.motifs[0].frequency = 3;
  LabeledMotifPredictor predictor(f.context, f.ontology, f.motifs);
  EXPECT_FALSE(predictor.Covers(3));
  for (const Prediction& p : predictor.Predict(3)) {
    EXPECT_DOUBLE_EQ(p.score, 0.0);
  }
}

TEST(LabeledMotifPredictorTest, StrengthWeighting) {
  MotifFixture f;
  // A second, weaker motif labels protein 0's vertex with leaf2 (cat2).
  LabeledMotif weak;
  weak.pattern = SmallGraph(2);
  weak.pattern.AddEdge(0, 1);
  weak.scheme.resize(2);
  weak.scheme[0] = {f.leaf2};
  weak.scheme[1] = {f.leaf2};
  weak.occurrences = OccurrenceList(2);
  weak.occurrences.push_back({0, 4});
  weak.frequency = 1;
  weak.uniqueness = 1.0;
  weak.strength = 0.1;
  f.motifs.push_back(std::move(weak));

  LabeledMotifPredictor predictor(f.context, f.ontology, f.motifs);
  const auto predictions = predictor.Predict(0);
  // Strong motif's cat1 vote (strength 1) beats the weak cat2 vote (0.1).
  EXPECT_EQ(predictions[0].category, f.cat1);
  EXPECT_GT(predictions[0].score, predictions[1].score);
  EXPECT_GT(predictions[1].score, 0.0);
}

}  // namespace
}  // namespace lamo
