#ifndef LAMO_PREDICT_LABELED_MOTIF_PREDICTOR_H_
#define LAMO_PREDICT_LABELED_MOTIF_PREDICTOR_H_

#include <vector>

#include "core/labeled_motif.h"
#include "predict/predictor.h"

namespace lamo {

/// The paper's proposed method (Section 5): predict the functions of a
/// protein from the labeled network motifs it occurs in.
///
/// For protein p and labeled motif g with occurrence set D_g, let v be a
/// vertex of g at which p appears in some occurrence. The likelihood that p
/// has function x is
///
///   f_x(p) = (1/z) * sum over g in LG_p of delta_g(v, x) * LMS(g)   (Eq. 5)
///
/// where delta_g(v, x) is the frequency of function x among the proteins
/// that play vertex v across g's occurrences (p's own occurrences excluded —
/// leave-one-out), LMS is the labeled-motif strength of Eq. 4, and z
/// normalizes the scores into [0, 1].
///
/// Unlike the four baselines, this exploits *remote but topologically
/// similar* proteins: the proteins at p's vertex in other occurrences need
/// not be anywhere near p in the network.
class LabeledMotifPredictor : public FunctionPredictor {
 public:
  /// How delta_g(v, x) is computed.
  enum class DeltaMode {
    /// From the labeling scheme (default, the paper's Eq. 5 reading): v's
    /// functions x1..xk are its scheme labels generalized to the top
    /// categories; a label votes for every category above it. Labels too
    /// general to fall under any category vote for nothing, so vague
    /// schemes are self-muting.
    kSchemeLabels,
    /// From the conforming occurrences: count the categories of the
    /// proteins playing v (kept as an ablation of the dictionary idea).
    kOccurrenceProteins,
  };

  /// Builds and owns the per-protein site index (BuildSiteIndex). All
  /// references must outlive the predictor. Motifs must already carry their
  /// LMS strengths (ComputeMotifStrengths). `ontology` is the branch the
  /// schemes were labeled in (used to generalize scheme labels to
  /// categories).
  LabeledMotifPredictor(const PredictionContext& context,
                        const Ontology& ontology,
                        const std::vector<LabeledMotif>& motifs,
                        DeltaMode mode = DeltaMode::kSchemeLabels);
  /// Borrows `sites`, which must be BuildSiteIndex(motifs, n) or its owned
  /// rows (a snapshot's index), must hold one row per protein and must
  /// outlive the predictor.
  LabeledMotifPredictor(const PredictionContext& context,
                        const Ontology& ontology,
                        const std::vector<LabeledMotif>& motifs,
                        const MotifSiteIndex& sites,
                        DeltaMode mode = DeltaMode::kSchemeLabels);

  // sites_ may point into owned_sites_.
  LabeledMotifPredictor(const LabeledMotifPredictor&) = delete;
  LabeledMotifPredictor& operator=(const LabeledMotifPredictor&) = delete;

  std::string name() const override { return "LabeledMotif"; }
  std::vector<Prediction> Predict(ProteinId p) const override;

  /// True iff p occurs in at least one labeled motif (the method has
  /// signal for p).
  bool Covers(ProteinId p) const override { return !(*sites_)[p].empty(); }

  /// Fraction of annotated proteins covered by at least one labeled motif.
  double CoverageOfAnnotated() const;

 private:
  const PredictionContext& context_;
  const Ontology& ontology_;
  const std::vector<LabeledMotif>& motifs_;
  DeltaMode mode_;
  MotifSiteIndex owned_sites_;   // empty when the index is borrowed
  const MotifSiteIndex* sites_;  // per protein, deduplicated sites
  std::vector<double> priors_;  // per category: tie-break for unvoted ones
};

}  // namespace lamo

#endif  // LAMO_PREDICT_LABELED_MOTIF_PREDICTOR_H_
