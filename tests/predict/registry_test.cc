#include <gtest/gtest.h>

#include "predict/registry.h"

namespace lamo {
namespace {

// Ontology: root -> cat1, cat2; cat1 -> leaf1; cat2 -> leaf2 (the labeled
// motif scheme labels live one level under the categories).
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

// A fixture rich enough for every backend: a network with distinct raw
// scores and ties, labeled motifs for lms, annotations for the similarity
// electorates.
struct RegistryFixture {
  Graph ppi;
  Ontology ontology;
  TermId cat1 = 0, cat2 = 0, leaf1 = 0, leaf2 = 0;
  PredictionContext context;
  std::vector<LabeledMotif> motifs;
  PredictorInputs inputs;

  RegistryFixture() {
    ontology = MakeCategoryOntology(&cat1, &cat2, &leaf1, &leaf2);
    GraphBuilder builder(8);
    EXPECT_TRUE(builder.AddEdge(0, 4).ok());
    EXPECT_TRUE(builder.AddEdge(1, 5).ok());
    EXPECT_TRUE(builder.AddEdge(2, 6).ok());
    EXPECT_TRUE(builder.AddEdge(3, 7).ok());
    EXPECT_TRUE(builder.AddEdge(0, 1).ok());
    ppi = builder.Build();
    context.ppi = &ppi;
    context.categories = {cat1, cat2};
    context.protein_categories = {
        {cat1}, {cat1}, {cat1}, {cat1},
        {cat2}, {cat2}, {cat2}, {},
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

    inputs.context = &context;
    inputs.ontology = &ontology;
    inputs.motifs = &motifs;
  }
};

TEST(RegistryTest, NamesAreStableAndUsageDerivesFromThem) {
  const std::vector<std::string> names = RegisteredPredictorNames();
  ASSERT_EQ(names.size(), 3u);
  EXPECT_EQ(names[0], "lms");
  EXPECT_EQ(names[1], "gds");
  EXPECT_EQ(names[2], "role");
  EXPECT_EQ(PredictorNamesUsage(), "lms|gds|role");
  for (const std::string& name : names) {
    EXPECT_TRUE(IsRegisteredPredictor(name));
  }
  EXPECT_FALSE(IsRegisteredPredictor("mrf"));
  EXPECT_FALSE(IsRegisteredPredictor(""));
}

TEST(RegistryTest, UnknownNameIsInvalidArgument) {
  RegistryFixture f;
  const auto made = MakePredictor("nope", f.inputs);
  ASSERT_FALSE(made.ok());
  EXPECT_TRUE(made.status().IsInvalidArgument());
  EXPECT_NE(made.status().message().find("lms|gds|role"), std::string::npos);
}

TEST(RegistryTest, LmsNeedsMotifs) {
  RegistryFixture f;
  f.inputs.motifs = nullptr;
  EXPECT_FALSE(MakePredictor("lms", f.inputs).ok());
}

TEST(RegistryTest, EveryBackendConstructsAndNamesItself) {
  RegistryFixture f;
  const char* display[] = {"LabeledMotif", "GDS", "RoleSimilarity"};
  size_t i = 0;
  for (const std::string& name : RegisteredPredictorNames()) {
    auto made = MakePredictor(name, f.inputs);
    ASSERT_TRUE(made.ok()) << name;
    EXPECT_EQ(made.value()->name(), display[i]) << name;
    ++i;
  }
}

TEST(RegistryTest, RejectsMisshapenPrecomputedMatrices) {
  RegistryFixture f;
  const std::vector<uint64_t> bad_sig(7, 1);
  f.inputs.gds_signatures = &bad_sig;
  EXPECT_FALSE(MakePredictor("gds", f.inputs).ok());
  const std::vector<double> bad_role(3, 0.5);
  f.inputs.role_vectors = &bad_role;
  f.inputs.role_dim = 2;
  EXPECT_FALSE(MakePredictor("role", f.inputs).ok());
}

// Shared conformance contract, asserted against every registered backend:
// Predict returns one entry per category; scores are normalized into [0, 1]
// and non-increasing; equal scores are ordered by descending category prior
// and then ascending category id; repeated calls are deterministic.
TEST(PredictorConformanceTest, TieBreakOrderingHoldsForAllBackends) {
  RegistryFixture f;
  std::vector<double> priors;
  for (const TermId c : f.context.categories) {
    priors.push_back(f.context.CategoryPrior(c));
  }
  for (const std::string& name : RegisteredPredictorNames()) {
    auto made = MakePredictor(name, f.inputs);
    ASSERT_TRUE(made.ok()) << name;
    const FunctionPredictor& predictor = *made.value();
    for (ProteinId p = 0; p < f.ppi.num_vertices(); ++p) {
      const auto predictions = predictor.Predict(p);
      ASSERT_EQ(predictions.size(), f.context.categories.size()) << name;
      for (size_t i = 0; i < predictions.size(); ++i) {
        EXPECT_GE(predictions[i].score, 0.0) << name;
        EXPECT_LE(predictions[i].score, 1.0) << name;
        if (i == 0) continue;
        const Prediction& prev = predictions[i - 1];
        const Prediction& cur = predictions[i];
        EXPECT_GE(prev.score, cur.score) << name << " protein " << p;
        if (prev.score == cur.score) {
          const auto prior_of = [&](TermId c) {
            for (size_t ci = 0; ci < f.context.categories.size(); ++ci) {
              if (f.context.categories[ci] == c) return priors[ci];
            }
            return 0.0;
          };
          const double prior_prev = prior_of(prev.category);
          const double prior_cur = prior_of(cur.category);
          EXPECT_GE(prior_prev, prior_cur) << name << " protein " << p;
          if (prior_prev == prior_cur) {
            EXPECT_LT(prev.category, cur.category) << name << " protein " << p;
          }
        }
      }
      // Determinism: a second call reproduces the ranking bit-for-bit.
      const auto again = predictor.Predict(p);
      ASSERT_EQ(again.size(), predictions.size()) << name;
      for (size_t i = 0; i < predictions.size(); ++i) {
        EXPECT_EQ(again[i].category, predictions[i].category) << name;
        EXPECT_EQ(again[i].score, predictions[i].score) << name;
      }
    }
  }
}

}  // namespace
}  // namespace lamo
