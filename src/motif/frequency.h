#ifndef LAMO_MOTIF_FREQUENCY_H_
#define LAMO_MOTIF_FREQUENCY_H_

#include <cstddef>
#include <vector>

#include "motif/motif.h"

namespace lamo {

/// The three frequency concepts of single-graph subgraph mining
/// [Kuramochi & Karypis; Schreiber & Schwöbbermeyer]:
///
///  - F1: all distinct occurrences, arbitrary overlap allowed. This is what
///    NeMoFinder and this library's miner count — cheap, but not
///    anti-monotone under pattern extension.
///  - F2: a maximum set of edge-disjoint occurrences.
///  - F3: a maximum set of vertex-disjoint occurrences (the strictest;
///    anti-monotone, used when overlaps must not inflate support).
///
/// Maximum independent set is NP-hard, so F2/F3 are computed greedily
/// (occurrences ordered as given, each kept iff disjoint from all kept so
/// far) — a 1/k-approximation that is the standard practical choice.
enum class FrequencyMeasure { kF1AllOccurrences, kF2EdgeDisjoint, kF3VertexDisjoint };

/// Greedy count of pairwise vertex-disjoint occurrences.
size_t CountVertexDisjoint(const OccurrenceList& occurrences);

/// Greedy count of pairwise edge-disjoint occurrences of `pattern` (two
/// occurrences may share vertices but not a mapped pattern edge).
size_t CountEdgeDisjoint(const SmallGraph& pattern,
                         const OccurrenceList& occurrences);

/// Frequency of a motif under the chosen measure (F1 is
/// occurrences.size()).
size_t Frequency(const Motif& motif, FrequencyMeasure measure);

}  // namespace lamo

#endif  // LAMO_MOTIF_FREQUENCY_H_
