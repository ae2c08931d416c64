#include "motif/frequency.h"

#include <algorithm>
#include <set>
#include <utility>

namespace lamo {

size_t CountVertexDisjoint(const OccurrenceList& occurrences) {
  std::set<VertexId> used;
  size_t count = 0;
  for (const std::span<const VertexId> occ : occurrences) {
    bool disjoint = true;
    for (VertexId p : occ) {
      if (used.count(p) != 0) {
        disjoint = false;
        break;
      }
    }
    if (!disjoint) continue;
    used.insert(occ.begin(), occ.end());
    ++count;
  }
  return count;
}

size_t CountEdgeDisjoint(const SmallGraph& pattern,
                         const OccurrenceList& occurrences) {
  const auto pattern_edges = pattern.Edges();
  std::set<std::pair<VertexId, VertexId>> used;
  size_t count = 0;
  for (const std::span<const VertexId> occ : occurrences) {
    std::vector<std::pair<VertexId, VertexId>> mapped;
    mapped.reserve(pattern_edges.size());
    for (const auto& [a, b] : pattern_edges) {
      VertexId x = occ[a];
      VertexId y = occ[b];
      if (x > y) std::swap(x, y);
      mapped.emplace_back(x, y);
    }
    bool disjoint = true;
    for (const auto& edge : mapped) {
      if (used.count(edge) != 0) {
        disjoint = false;
        break;
      }
    }
    if (!disjoint) continue;
    used.insert(mapped.begin(), mapped.end());
    ++count;
  }
  return count;
}

size_t Frequency(const Motif& motif, FrequencyMeasure measure) {
  switch (measure) {
    case FrequencyMeasure::kF1AllOccurrences:
      return motif.occurrences.size();
    case FrequencyMeasure::kF2EdgeDisjoint:
      return CountEdgeDisjoint(motif.pattern, motif.occurrences);
    case FrequencyMeasure::kF3VertexDisjoint:
      return CountVertexDisjoint(motif.occurrences);
  }
  return 0;
}

}  // namespace lamo
