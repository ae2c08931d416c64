// Regenerates the Figure-5 argument of the paper: non-overlapping clustering
// (k-means/k-medoids) misses labeling schemes that the agglomerative
// hierarchical clustering of LaMoFinder finds, because occurrences may
// conform to several overlapping schemes at once.
//
// Setup: one triangle motif with three occurrence populations — "A-pure"
// occurrences annotated under branch A, "B-pure" under branch B, and a
// smaller "bridge" population annotated under both. Schemes A and B each
// conform to their pure population *plus* the bridge, so with sigma = 10 the
// hierarchy finds both (and the bridge scheme), while a disjoint partition
// must split the bridge occurrences one way or the other.
#include <iostream>
#include <set>

#include "core/kmedoids_baseline.h"
#include "core/lamofinder.h"
#include "core/paper_example.h"
#include "graph/canonical.h"
#include "util/logging.h"
#include "util/table_printer.h"

namespace {

using namespace lamo;

struct Scenario {
  Ontology ontology;
  AnnotationTable genome{0};
  TermWeights weights;
  InformativeClasses informative;
  AnnotationTable proteins{0};
  Motif motif;
};

Scenario BuildScenario() {
  Scenario s;
  OntologyBuilder builder;
  const TermId root = builder.AddTerm("root");
  const TermId a = builder.AddTerm("A");
  const TermId b = builder.AddTerm("B");
  const TermId a1 = builder.AddTerm("A1");
  const TermId a2 = builder.AddTerm("A2");
  const TermId b1 = builder.AddTerm("B1");
  const TermId b2 = builder.AddTerm("B2");
  LAMO_CHECK(builder.AddRelation(a, root, RelationType::kIsA).ok());
  LAMO_CHECK(builder.AddRelation(b, root, RelationType::kIsA).ok());
  LAMO_CHECK(builder.AddRelation(a1, a, RelationType::kIsA).ok());
  LAMO_CHECK(builder.AddRelation(a2, a, RelationType::kIsA).ok());
  LAMO_CHECK(builder.AddRelation(b1, b, RelationType::kIsA).ok());
  LAMO_CHECK(builder.AddRelation(b2, b, RelationType::kIsA).ok());
  auto built = builder.Build();
  LAMO_CHECK(built.ok());
  s.ontology = std::move(built).value();

  // Genome: both branches informative (>= 30 direct), leaves not.
  s.genome = AnnotationTable(120);
  ProteinId next = 0;
  for (int i = 0; i < 35; ++i) LAMO_CHECK(s.genome.Annotate(next++, a).ok());
  for (int i = 0; i < 35; ++i) LAMO_CHECK(s.genome.Annotate(next++, b).ok());
  for (int i = 0; i < 15; ++i) LAMO_CHECK(s.genome.Annotate(next++, a1).ok());
  for (int i = 0; i < 10; ++i) LAMO_CHECK(s.genome.Annotate(next++, a2).ok());
  for (int i = 0; i < 15; ++i) LAMO_CHECK(s.genome.Annotate(next++, b1).ok());
  for (int i = 0; i < 10; ++i) LAMO_CHECK(s.genome.Annotate(next++, b2).ok());
  s.weights = TermWeights::Compute(s.ontology, s.genome);
  s.informative = InformativeClasses::Compute(s.ontology, s.genome);

  // 30 disjoint triangle occurrences: 12 A-pure, 12 B-pure, 6 bridge.
  const size_t kOccurrences = 30;
  s.motif.pattern = SmallGraph(3);
  s.motif.pattern.AddEdge(0, 1);
  s.motif.pattern.AddEdge(1, 2);
  s.motif.pattern.AddEdge(0, 2);
  s.motif.code = CanonicalCode(s.motif.pattern);
  s.proteins = AnnotationTable(3 * kOccurrences);
  s.motif.occurrences = OccurrenceList(3);
  Rng rng(5);
  for (size_t o = 0; o < kOccurrences; ++o) {
    const std::span<VertexId> occ =
        s.motif.occurrences.push_back_uninitialized();
    for (uint32_t v = 0; v < 3; ++v) {
      const ProteinId p = static_cast<ProteinId>(3 * o + v);
      occ[v] = p;
      const bool in_a = o < 12 || o >= 24;
      const bool in_b = o >= 12;
      if (in_a) {
        LAMO_CHECK(
            s.proteins.Annotate(p, rng.Bernoulli(0.5) ? a1 : a2).ok());
      }
      if (in_b) {
        LAMO_CHECK(
            s.proteins.Annotate(p, rng.Bernoulli(0.5) ? b1 : b2).ok());
      }
    }
  }
  s.motif.frequency = s.motif.occurrences.size();
  s.motif.uniqueness = 1.0;
  return s;
}

}  // namespace

int main() {
  const Scenario s = BuildScenario();
  const size_t sigma = 10;

  std::cout << "=== Figure 5: hierarchical vs non-overlapping clustering "
               "===\n\n";
  std::cout << "occurrences: 12 under branch A, 12 under branch B, 6 under "
               "both (bridge); sigma = "
            << sigma << "\n\n";

  LaMoFinder finder(s.ontology, s.weights, s.informative, s.proteins);
  LaMoFinderConfig config;
  config.sigma = sigma;
  config.min_similarity = 0.35;
  const auto hierarchical = finder.LabelMotif(s.motif, config);

  KMedoidsConfig kmedoids_config;
  kmedoids_config.sigma = sigma;
  kmedoids_config.k = 3;
  const auto kmedoids =
      LabelMotifKMedoids(s.ontology, s.weights, s.informative, s.proteins,
                         s.motif, kmedoids_config);

  TablePrinter table({"method", "schemes found", "scheme", "conforming"});
  bool first = true;
  for (const auto& lm : hierarchical) {
    table.AddRow({first ? "LaMoFinder (hierarchical)" : "",
                  first ? std::to_string(hierarchical.size()) : "",
                  lm.SchemeToString(s.ontology), std::to_string(lm.frequency)});
    first = false;
  }
  first = true;
  for (const auto& lm : kmedoids) {
    table.AddRow({first ? "k-medoids (disjoint)" : "",
                  first ? std::to_string(kmedoids.size()) : "",
                  lm.SchemeToString(s.ontology), std::to_string(lm.frequency)});
    first = false;
  }
  if (kmedoids.empty()) {
    table.AddRow({"k-medoids (disjoint)", "0", "-", "-"});
  }
  table.Print(std::cout);

  std::cout << "\nExpected shape (paper): the hierarchy recovers overlapping "
               "schemes (>= the disjoint partition; the bridge occurrences "
               "support both branch schemes), k-means-style clustering "
               "cannot.\n";
  std::cout << "hierarchical: " << hierarchical.size()
            << " schemes, k-medoids: " << kmedoids.size() << " schemes -> "
            << (hierarchical.size() >= kmedoids.size() ? "OK" : "UNEXPECTED")
            << "\n";
  return 0;
}
