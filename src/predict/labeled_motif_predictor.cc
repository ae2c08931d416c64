#include "predict/labeled_motif_predictor.h"

#include <algorithm>

#include "obs/obs.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace lamo {
namespace {

/// One vote = one motif site contributing its weighted delta to a protein's
/// category scores.
const size_t kObsVotes = ObsCounterId("predict.votes");
/// Per-protein scoring latency; span arg = protein id.
const size_t kHistScoreUs = ObsHistogramId("predict.score_us");
const size_t kSpanScore = ObsSpanId("predict.score");

std::vector<double> CategoryPriors(const PredictionContext& context) {
  std::vector<double> priors;
  priors.reserve(context.categories.size());
  for (TermId c : context.categories) {
    priors.push_back(context.CategoryPrior(c));
  }
  return priors;
}

}  // namespace

LabeledMotifPredictor::LabeledMotifPredictor(
    const PredictionContext& context, const Ontology& ontology,
    const std::vector<LabeledMotif>& motifs, DeltaMode mode)
    : context_(context),
      ontology_(ontology),
      motifs_(motifs),
      mode_(mode),
      owned_sites_(BuildSiteIndex(motifs, context.ppi->num_vertices())),
      sites_(&owned_sites_),
      priors_(CategoryPriors(context)) {}

LabeledMotifPredictor::LabeledMotifPredictor(
    const PredictionContext& context, const Ontology& ontology,
    const std::vector<LabeledMotif>& motifs, const MotifSiteIndex& sites,
    DeltaMode mode)
    : context_(context),
      ontology_(ontology),
      motifs_(motifs),
      mode_(mode),
      sites_(&sites),
      priors_(CategoryPriors(context)) {}

std::vector<Prediction> LabeledMotifPredictor::Predict(ProteinId p) const {
  const ScopedItemTimer timer(kSpanScore, kHistScoreUs, p, 0, 1);
  std::vector<double> scores(context_.categories.size(), 0.0);
  for (const MotifSite& site : (*sites_)[p]) {
    ObsIncrement(kObsVotes);
    const LabeledMotif& motif = motifs_[site.motif];
    std::vector<double> delta(context_.categories.size(), 0.0);
    if (mode_ == DeltaMode::kSchemeLabels) {
      // delta_g(v, x): how many of v's scheme labels fall under category x.
      // A label more general than every category contributes nothing.
      for (TermId label : motif.scheme[site.vertex]) {
        const auto ancestors = ontology_.AncestorsOf(label);
        for (size_t ci = 0; ci < context_.categories.size(); ++ci) {
          if (std::binary_search(ancestors.begin(), ancestors.end(),
                                 context_.categories[ci])) {
            delta[ci] += 1.0;
          }
        }
      }
    } else {
      // Ablation: frequency of category x among the proteins at vertex v
      // across g's occurrences, excluding p itself (leave-one-out).
      for (const std::span<const VertexId> occ : motif.occurrences) {
        const VertexId q = occ[site.vertex];
        if (q == p) continue;
        for (size_t ci = 0; ci < context_.categories.size(); ++ci) {
          if (context_.HasCategory(q, context_.categories[ci])) {
            delta[ci] += 1.0;
          }
        }
      }
    }
    for (size_t ci = 0; ci < context_.categories.size(); ++ci) {
      scores[ci] += delta[ci] * motif.strength;
    }
  }
  // Eq. 5 only defines the ranking among voted categories — the shared
  // ranking tail normalizes by the max vote and settles the unvoted tail by
  // category prior.
  return RankCategories(context_, scores, priors_);
}

double LabeledMotifPredictor::CoverageOfAnnotated() const {
  size_t annotated = 0;
  size_t covered = 0;
  for (ProteinId p = 0; p < sites_->size(); ++p) {
    if (!context_.IsAnnotated(p)) continue;
    ++annotated;
    if (Covers(p)) ++covered;
  }
  return annotated == 0
             ? 0.0
             : static_cast<double>(covered) / static_cast<double>(annotated);
}

}  // namespace lamo
