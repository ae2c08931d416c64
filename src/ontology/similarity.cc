#include "ontology/similarity.h"

namespace lamo {

TermId TermSimilarity::LowestCommonParent(TermId ta, TermId tb) const {
  const auto anc_a = ontology_.AncestorsOf(ta);
  const auto anc_b = ontology_.AncestorsOf(tb);
  TermId best = kInvalidTerm;
  double best_weight = 2.0;
  // Both closures are sorted: linear merge intersection.
  auto it_a = anc_a.begin();
  auto it_b = anc_b.begin();
  while (it_a != anc_a.end() && it_b != anc_b.end()) {
    if (*it_a < *it_b) {
      ++it_a;
    } else if (*it_b < *it_a) {
      ++it_b;
    } else {
      const double weight = weights_.Weight(*it_a);
      if (weight < best_weight) {
        best_weight = weight;
        best = *it_a;
      }
      ++it_a;
      ++it_b;
    }
  }
  return best;
}

double TermSimilarity::Similarity(TermId ta, TermId tb) const {
  if (ta == tb) return 1.0;
  const TermId tab = LowestCommonParent(ta, tb);
  if (tab == kInvalidTerm) return 0.0;  // different branches: unrelated
  const double log_ab = weights_.LogWeight(tab);
  const double denom = weights_.LogWeight(ta) + weights_.LogWeight(tb);
  if (denom == 0.0) {
    // Both terms weigh 1 (roots). They are distinct here (ta == tb was
    // handled), so they share no information.
    return 0.0;
  }
  double sim = 2.0 * log_ab / denom;
  if (sim < 0.0) sim = 0.0;
  if (sim > 1.0) sim = 1.0;
  return sim;
}

}  // namespace lamo
