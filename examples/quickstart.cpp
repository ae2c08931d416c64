// Quickstart: the paper's worked example end to end in ~60 lines of API.
//
// Builds the Section-2 ontology (Figure 1 / Table 1), the small PPI network
// with four occurrences of the 4-cycle motif (Figures 2-3), and runs
// LaMoFinder to derive labeling schemes, printing everything it computes
// along the way.
#include <cstdio>

#include "core/lamofinder.h"
#include "core/occurrence_similarity.h"
#include "core/paper_example.h"
#include "graph/automorphism.h"
#include "graph/canonical.h"

int main() {
  using namespace lamo;

  // 1. The worked example of the paper: ontology, weights, PPI, motif.
  const PaperExample example = MakePaperExample();
  std::printf("PPI network: %s\n", example.ppi.ToString().c_str());
  std::printf("Ontology: %zu terms, root %s\n",
              example.ontology.num_terms(),
              example.ontology.TermName(example.ontology.Roots()[0]).c_str());

  // 2. GO term weights (Lord et al.) and Lin similarity (Eq. 1).
  TermSimilarity st(example.ontology, example.weights);
  const TermId g08 = example.term("G08");
  const TermId g09 = example.term("G09");
  std::printf("w(G08) = %.2f, w(G09) = %.2f, ST(G08, G09) = %.2f\n",
              example.weights.Weight(g08), example.weights.Weight(g09),
              st.Similarity(g08, g09));

  // 3. The motif's symmetric vertex sets (Section 2, issue 2).
  std::printf("Motif: %s\n", example.motif.ToString().c_str());
  for (const auto& set : SymmetricVertexSets(example.motif)) {
    std::printf("  symmetric set: {");
    for (size_t i = 0; i < set.size(); ++i) {
      std::printf("%sv%u", i ? ", " : "", set[i] + 1);
    }
    std::printf("}\n");
  }

  // 4. Package the occurrences as a Motif and label it.
  Motif motif;
  motif.pattern = example.motif;
  motif.code = CanonicalCode(example.motif);
  motif.occurrences = OccurrenceList(example.motif.num_vertices());
  for (const auto& occ : example.occurrences) motif.occurrences.push_back(occ);
  motif.frequency = motif.occurrences.size();
  motif.uniqueness = 1.0;

  LaMoFinder finder(example.ontology, example.weights, example.informative,
                    example.protein_annotations);
  LaMoFinderConfig config;
  config.sigma = 2;  // the toy network has only 4 occurrences
  config.min_similarity = 0.3;

  const auto labeled = finder.LabelAll({motif}, config);
  std::printf("\nLaMoFinder produced %zu labeling scheme(s):\n",
              labeled.size());
  for (const LabeledMotif& lm : labeled) {
    std::printf("  %s  (frequency %zu, LMS %.2f)\n",
                lm.SchemeToString(example.ontology).c_str(), lm.frequency,
                lm.strength);
  }
  return 0;
}
