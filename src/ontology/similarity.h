#ifndef LAMO_ONTOLOGY_SIMILARITY_H_
#define LAMO_ONTOLOGY_SIMILARITY_H_

#include "ontology/ontology.h"
#include "ontology/weights.h"

namespace lamo {

/// Lin-style GO term similarity (Eq. 1 of the paper):
///
///   ST(ta, tb) = 2 ln w(tab) / (ln w(ta) + ln w(tb))
///
/// where tab is the *lowest common parent*: among all common ancestors of ta
/// and tb, the one with the smallest weight (most informative). Varies in
/// [0, 1]; equals 1 for identical informative terms, 0 when the only shared
/// context is the root.
///
/// Each call computes Eq. 1 directly: a merge of two sorted ancestor spans
/// and three weight lookups, well under a microsecond. The object holds no
/// mutable state, so Similarity() is safe to call concurrently.
class TermSimilarity {
 public:
  /// Both references must outlive this object.
  TermSimilarity(const Ontology& ontology, const TermWeights& weights)
      : ontology_(ontology), weights_(weights) {}

  TermSimilarity(const TermSimilarity&) = delete;
  TermSimilarity& operator=(const TermSimilarity&) = delete;

  /// The lowest common parent tab of (ta, tb): the common ancestor (self
  /// included) of minimal weight; kInvalidTerm if the terms share no
  /// ancestor (distinct roots).
  TermId LowestCommonParent(TermId ta, TermId tb) const;

  /// ST(ta, tb) per Eq. 1. Thread-safe.
  double Similarity(TermId ta, TermId tb) const;

  const Ontology& ontology() const { return ontology_; }
  const TermWeights& weights() const { return weights_; }

 private:
  const Ontology& ontology_;
  const TermWeights& weights_;
};

}  // namespace lamo

#endif  // LAMO_ONTOLOGY_SIMILARITY_H_
