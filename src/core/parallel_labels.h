#ifndef LAMO_CORE_PARALLEL_LABELS_H_
#define LAMO_CORE_PARALLEL_LABELS_H_

#include <array>
#include <optional>
#include <vector>

#include "core/labeled_motif.h"
#include "ontology/ontology.h"

namespace lamo {

/// A network motif labeled in several GO branches at once — Figure 7's g3:
/// functional labels alongside cellular-location labels on the same
/// occurrences, revealing e.g. where a functional complex operates.
struct ParallelLabeledMotif {
  /// The shared unlabeled pattern.
  SmallGraph pattern;
  std::vector<uint8_t> code;
  /// Per GO branch (function/process/component): the scheme, if that branch
  /// contributed one for this occurrence population.
  std::array<std::optional<LabelProfile>, 3> schemes;
  /// Occurrences conforming to every present scheme (aligned to the first
  /// contributing branch's vertex order).
  OccurrenceList occurrences;
  /// |occurrences|.
  size_t frequency = 0;

  /// Number of branches with a scheme.
  size_t num_branches() const {
    size_t n = 0;
    for (const auto& s : schemes) {
      if (s.has_value()) ++n;
    }
    return n;
  }
};

/// Combines per-branch labeling results for the same motif universe into
/// parallel-labeled motifs: labeled motifs with identical canonical codes
/// whose conforming occurrence sets overlap in at least
/// `min_common_occurrences` vertex sets are fused, keeping the intersection
/// as the parallel motif's occurrences. Entries of `per_branch` are indexed
/// by GoBranch; empty vectors are allowed. Only fusions covering at least
/// two branches are returned, ordered by descending frequency.
std::vector<ParallelLabeledMotif> CombineBranchLabels(
    const std::array<std::vector<LabeledMotif>, 3>& per_branch,
    size_t min_common_occurrences);

}  // namespace lamo

#endif  // LAMO_CORE_PARALLEL_LABELS_H_
