#include "core/parallel_labels.h"

#include <algorithm>
#include <set>

namespace lamo {
namespace {

std::vector<VertexId> SortedSet(std::span<const VertexId> occ) {
  std::vector<VertexId> sorted(occ.begin(), occ.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

std::set<std::vector<VertexId>> OccurrenceSets(const LabeledMotif& lm) {
  std::set<std::vector<VertexId>> sets;
  for (const std::span<const VertexId> occ : lm.occurrences) {
    sets.insert(SortedSet(occ));
  }
  return sets;
}

size_t OverlapSize(const std::set<std::vector<VertexId>>& a,
                   const std::set<std::vector<VertexId>>& b) {
  size_t overlap = 0;
  for (const auto& set : a) {
    if (b.count(set) != 0) ++overlap;
  }
  return overlap;
}

}  // namespace

std::vector<ParallelLabeledMotif> CombineBranchLabels(
    const std::array<std::vector<LabeledMotif>, 3>& per_branch,
    size_t min_common_occurrences) {
  std::vector<ParallelLabeledMotif> results;

  // Seed from the first branch that has any labeled motifs; extend greedily
  // with the best-overlapping labeled motif of each later branch.
  for (size_t seed_branch = 0; seed_branch < per_branch.size();
       ++seed_branch) {
    for (const LabeledMotif& seed : per_branch[seed_branch]) {
      ParallelLabeledMotif combined;
      combined.pattern = seed.pattern;
      combined.code = seed.code;
      combined.schemes[seed_branch] = seed.scheme;
      combined.occurrences = seed.occurrences;
      std::set<std::vector<VertexId>> common = OccurrenceSets(seed);

      for (size_t branch = seed_branch + 1; branch < per_branch.size();
           ++branch) {
        const LabeledMotif* best = nullptr;
        size_t best_overlap = 0;
        std::set<std::vector<VertexId>> best_sets;
        for (const LabeledMotif& candidate : per_branch[branch]) {
          if (candidate.code != seed.code) continue;
          std::set<std::vector<VertexId>> sets = OccurrenceSets(candidate);
          const size_t overlap = OverlapSize(common, sets);
          if (overlap > best_overlap) {
            best_overlap = overlap;
            best = &candidate;
            best_sets = std::move(sets);
          }
        }
        if (best == nullptr || best_overlap < min_common_occurrences) {
          continue;
        }
        combined.schemes[branch] = best->scheme;
        std::set<std::vector<VertexId>> intersection;
        for (const auto& set : common) {
          if (best_sets.count(set) != 0) intersection.insert(set);
        }
        common = std::move(intersection);
      }

      if (combined.num_branches() < 2) continue;
      if (common.size() < min_common_occurrences) continue;
      // Keep the seed-aligned occurrences whose vertex set survived.
      OccurrenceList kept(seed.occurrences.k());
      for (const std::span<const VertexId> occ : seed.occurrences) {
        if (common.count(SortedSet(occ)) != 0) kept.push_back(occ);
      }
      combined.occurrences = std::move(kept);
      combined.frequency = combined.occurrences.size();
      results.push_back(std::move(combined));
    }
  }
  std::stable_sort(results.begin(), results.end(),
                   [](const ParallelLabeledMotif& a,
                      const ParallelLabeledMotif& b) {
                     return a.frequency > b.frequency;
                   });
  return results;
}

}  // namespace lamo
