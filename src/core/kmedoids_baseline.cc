#include "core/kmedoids_baseline.h"

#include <algorithm>

#include "core/occurrence_similarity.h"
#include "util/logging.h"

namespace lamo {
namespace {

// Builds the annotation profile of one occurrence.
LabelProfile OccurrenceProfile(const AnnotationTable& annotations,
                               std::span<const VertexId> occ) {
  LabelProfile profile(occ.size());
  for (size_t pos = 0; pos < occ.size(); ++pos) {
    const auto terms = annotations.TermsOf(occ[pos]);
    profile[pos].assign(terms.begin(), terms.end());
  }
  return profile;
}

}  // namespace

std::vector<LabeledMotif> LabelMotifKMedoids(
    const Ontology& ontology, const TermWeights& weights,
    const InformativeClasses& informative, const AnnotationTable& annotations,
    const Motif& motif, const KMedoidsConfig& config) {
  std::vector<LabeledMotif> results;
  const size_t num_vertices = motif.pattern.num_vertices();
  if (num_vertices == 0 || motif.occurrences.empty()) return results;

  // Strided sample of occurrence indices (same rule as LaMoFinder).
  std::vector<size_t> sample;
  if (config.max_occurrences != 0 &&
      motif.occurrences.size() > config.max_occurrences) {
    const double stride = static_cast<double>(motif.occurrences.size()) /
                          static_cast<double>(config.max_occurrences);
    for (size_t i = 0; i < config.max_occurrences; ++i) {
      sample.push_back(static_cast<size_t>(i * stride));
    }
  } else {
    for (size_t i = 0; i < motif.occurrences.size(); ++i) sample.push_back(i);
  }
  const size_t n = sample.size();
  const size_t k =
      config.k != 0 ? config.k : std::max<size_t>(1, n / config.sigma);

  TermSimilarity st(ontology, weights);
  OccurrenceSimilarity so(st, motif.pattern);
  std::vector<LabelProfile> profiles;
  profiles.reserve(n);
  for (const size_t i : sample) {
    profiles.push_back(OccurrenceProfile(annotations, motif.occurrences[i]));
  }

  // Initialize medoids with distinct random occurrences.
  Rng rng(config.seed);
  std::vector<size_t> medoids = rng.SampleWithoutReplacement(n, std::min(k, n));
  std::vector<size_t> assignment(n, 0);

  for (size_t iter = 0; iter < config.max_iterations; ++iter) {
    // Assign each occurrence to its most similar medoid.
    bool changed = false;
    for (size_t i = 0; i < n; ++i) {
      size_t best = assignment[i];
      double best_sim = -1.0;
      for (size_t c = 0; c < medoids.size(); ++c) {
        const double s = so.Score(profiles[i], profiles[medoids[c]]);
        if (s > best_sim) {
          best_sim = s;
          best = c;
        }
      }
      if (best != assignment[i]) {
        assignment[i] = best;
        changed = true;
      }
    }
    // Recompute medoids: the member maximizing total similarity to its
    // cluster.
    for (size_t c = 0; c < medoids.size(); ++c) {
      std::vector<size_t> members;
      for (size_t i = 0; i < n; ++i) {
        if (assignment[i] == c) members.push_back(i);
      }
      if (members.empty()) continue;
      size_t best_medoid = medoids[c];
      double best_total = -1.0;
      for (size_t candidate : members) {
        double total = 0.0;
        for (size_t other : members) {
          total += so.Score(profiles[candidate], profiles[other]);
        }
        if (total > best_total) {
          best_total = total;
          best_medoid = candidate;
        }
      }
      medoids[c] = best_medoid;
    }
    if (!changed) break;
  }

  // Derive one labeling scheme per cluster of >= sigma occurrences.
  std::vector<bool> candidate_filter(ontology.num_terms());
  for (TermId t = 0; t < ontology.num_terms(); ++t) {
    candidate_filter[t] = informative.IsLabelCandidate(t);
  }
  for (size_t c = 0; c < medoids.size(); ++c) {
    std::vector<size_t> members;
    for (size_t i = 0; i < n; ++i) {
      if (assignment[i] == c) members.push_back(i);
    }
    if (members.size() < config.sigma) continue;

    // Fold members into the medoid's profile pairwise (same least-general
    // rule as LaMoFinder, but over a fixed disjoint cluster).
    LabelProfile scheme = profiles[medoids[c]];
    OccurrenceList occurrences(num_vertices);
    for (size_t i : members) {
      std::vector<uint32_t> pairing;
      so.Score(scheme, profiles[i], &pairing);
      for (size_t pos = 0; pos < num_vertices; ++pos) {
        scheme[pos] = LeastGeneralLabels(st, scheme[pos],
                                         profiles[i][pairing[pos]],
                                         &candidate_filter);
        if (config.max_labels_per_vertex != 0 &&
            scheme[pos].size() > config.max_labels_per_vertex) {
          std::sort(scheme[pos].begin(), scheme[pos].end(),
                    [&](TermId a, TermId b) {
                      return weights.Weight(a) < weights.Weight(b);
                    });
          scheme[pos].resize(config.max_labels_per_vertex);
          std::sort(scheme[pos].begin(), scheme[pos].end());
        }
      }
      const std::span<const VertexId> occ = motif.occurrences[sample[i]];
      const std::span<VertexId> realigned =
          occurrences.push_back_uninitialized();
      for (size_t pos = 0; pos < num_vertices; ++pos) {
        realigned[pos] = occ[pairing[pos]];
      }
    }
    // Same emission rule as LaMoFinder: labels restricted to candidates,
    // at least half of the vertices labeled.
    LabelProfile filtered(num_vertices);
    size_t labeled_vertices = 0;
    for (size_t pos = 0; pos < num_vertices; ++pos) {
      for (TermId t : scheme[pos]) {
        if (candidate_filter[t]) filtered[pos].push_back(t);
      }
      if (!filtered[pos].empty()) ++labeled_vertices;
    }
    if (2 * labeled_vertices < num_vertices || labeled_vertices == 0) {
      continue;
    }

    LabeledMotif labeled;
    labeled.pattern = motif.pattern;
    labeled.code = motif.code;
    labeled.scheme = std::move(filtered);
    labeled.occurrences = std::move(occurrences);
    labeled.frequency = labeled.occurrences.size();
    labeled.uniqueness = motif.uniqueness >= 0.0 ? motif.uniqueness : 1.0;
    results.push_back(std::move(labeled));
  }
  return results;
}

}  // namespace lamo
