#ifndef LAMO_MOTIF_ESU_FINDER_H_
#define LAMO_MOTIF_ESU_FINDER_H_

#include <vector>

#include "graph/graph.h"
#include "motif/motif.h"
#include "motif/uniqueness.h"
#include "util/checkpoint.h"

namespace lamo {

/// Configuration of the FANMOD-style per-size motif finder.
struct EsuMotifConfig {
  /// Subgraph size (this pipeline is per-size, like FANMOD/mfinder); at
  /// most kMaxPatternVertices (16).
  size_t size = 4;
  /// Minimum occurrences for a class to be considered repeated.
  size_t min_frequency = 5;
  /// The uniqueness ensemble.
  UniquenessConfig uniqueness;
  /// Classes below this uniqueness are dropped. Negative keeps everything
  /// (uniqueness still reported).
  double uniqueness_threshold = 0.95;
  /// Crash-safe progress saves: the enumeration checkpoints per root-vertex
  /// chunk group (stage "mine_enum_<size>") and the uniqueness ensemble per
  /// replicate group (stage "mine_uniq_<size>"). Resumed runs are
  /// byte-identical to uninterrupted ones.
  CheckpointOptions checkpoint;
};

/// The FANMOD/mfinder route to network motifs: exhaustively enumerate all
/// connected size-k subgraphs with ESU, group them by canonical class, then
/// score uniqueness on the shared ensemble (ScoreUniqueness) with a counter
/// that census-counts each randomized network once, comparing *all* class
/// counts at a time. The two routes cross-validate each other in tests and
/// are raced in bench_micro.
///
/// Occurrences are aligned to the canonical vertex order, so the result
/// feeds LaMoFinder directly.
std::vector<Motif> FindNetworkMotifsEsu(const Graph& graph,
                                        const EsuMotifConfig& config);

}  // namespace lamo

#endif  // LAMO_MOTIF_ESU_FINDER_H_
