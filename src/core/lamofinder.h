#ifndef LAMO_CORE_LAMOFINDER_H_
#define LAMO_CORE_LAMOFINDER_H_

#include <cstdint>
#include <vector>

#include "core/label_profile.h"
#include "core/labeled_motif.h"
#include "motif/motif.h"
#include "ontology/annotation.h"
#include "ontology/informative.h"
#include "ontology/ontology.h"
#include "ontology/similarity.h"
#include "ontology/weights.h"
#include "util/checkpoint.h"

namespace lamo {

/// Tuning knobs of the labeling algorithm (Algorithms 1-2 of the paper).
struct LaMoFinderConfig {
  /// sigma: a labeling scheme must conform to at least this many occurrences
  /// to be emitted. The paper uses 10 on the yeast interactome.
  size_t sigma = 10;
  /// Stop generalizing a cluster once more than this fraction of its motif
  /// vertices carry at least one border-informative label ("more than half"
  /// in the paper).
  double border_fraction = 0.5;
  /// Clusters are merged only while their occurrence similarity is at least
  /// this much; below it, an unsaturated cluster has no occurrence to
  /// combine with and "proceeds to the next step".
  double min_similarity = 0.5;
  /// Deterministic cap on |D_g| used for clustering (evenly-strided sample)
  /// to bound the O(|D|^2) similarity stage; 0 = no cap. Conformance-based
  /// frequency is still counted over the full occurrence set.
  size_t max_occurrences = 600;
  /// Cap on a vertex's label-set size after a merge; the most informative
  /// (lowest-weight) labels are kept. 0 = unlimited.
  size_t max_labels_per_vertex = 6;
  /// Also emit saturated intermediate clusters (dendrogram nodes), not only
  /// the final partition. This is what lets hierarchical clustering find
  /// overlapping labeling schemes that k-means misses (Figure 5).
  bool emit_intermediate = true;
  /// Crash-safe progress saves per motif group in LabelAll (stage "label",
  /// keyed by motif index). Resumed runs are byte-identical: batches
  /// concatenate in motif order and LMS strengths are computed once at the
  /// end over the full result.
  CheckpointOptions checkpoint;
};

/// LaMoFinder: labels network motifs with GO terms (Task 3 of network motif
/// mining). For each motif g with occurrence set D_g, agglomeratively
/// clusters the occurrences under the occurrence similarity SO (Eq. 3),
/// deriving at each merge the least general labeling scheme of the merged
/// cluster; saturated clusters (enough border-informative vertices) with at
/// least sigma conforming occurrences are emitted as labeled motifs.
class LaMoFinder {
 public:
  /// All references must outlive the finder. `annotations` maps the PPI
  /// graph's vertices (proteins) to direct GO terms of one branch; call the
  /// finder once per branch as the paper does.
  LaMoFinder(const Ontology& ontology, const TermWeights& weights,
             const InformativeClasses& informative,
             const AnnotationTable& annotations);

  LaMoFinder(const LaMoFinder&) = delete;
  LaMoFinder& operator=(const LaMoFinder&) = delete;

  /// Labels one motif, returning zero or more labeled motifs (distinct
  /// labeling schemes with >= sigma conforming occurrences each).
  std::vector<LabeledMotif> LabelMotif(const Motif& motif,
                                       const LaMoFinderConfig& config) const;

  /// Labels every motif and computes LMS strengths over the whole result.
  std::vector<LabeledMotif> LabelAll(const std::vector<Motif>& motifs,
                                     const LaMoFinderConfig& config) const;

  /// Counts the occurrences of `motif` that conform to `scheme` and returns
  /// them re-aligned to the scheme (public for tests and the prediction
  /// stage).
  OccurrenceList ConformingOccurrences(
      const Motif& motif, const LabelProfile& scheme) const;

  /// The term-similarity engine (shared with callers that need consistent
  /// ST values).
  const TermSimilarity& term_similarity() const { return st_; }

 private:
  const Ontology& ontology_;
  const TermWeights& weights_;
  const InformativeClasses& informative_;
  const AnnotationTable& annotations_;
  TermSimilarity st_;
  std::vector<bool> candidate_filter_;
};

}  // namespace lamo

#endif  // LAMO_CORE_LAMOFINDER_H_
