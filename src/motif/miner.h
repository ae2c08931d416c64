#ifndef LAMO_MOTIF_MINER_H_
#define LAMO_MOTIF_MINER_H_

#include <cstdint>
#include <vector>

#include "graph/graph.h"
#include "motif/motif.h"
#include "util/checkpoint.h"
#include "util/status.h"

namespace lamo {

/// Parameters of the frequent-subgraph miner.
struct MinerConfig {
  /// Smallest pattern size reported.
  size_t min_size = 3;
  /// Largest pattern size grown to. The paper mines up to meso-scale
  /// (size 20). Growth also stops at the first empty level, so a value
  /// past SmallGraph::kMaxVertices is fine until a level reaches that size.
  size_t max_size = 10;
  /// Minimum number of distinct occurrences (vertex sets) for a pattern to
  /// be considered repeated. The paper uses 100 on the BIND yeast network.
  size_t min_frequency = 100;
  /// Memory-control cap: stop collecting occurrences of a single pattern
  /// beyond this many (its frequency then records the cap as a lower bound).
  /// 0 = unlimited.
  size_t max_occurrences_per_pattern = 50000;
  /// Optional beam: keep at most this many most-frequent patterns per level
  /// before growing the next level. 0 = unlimited. NeMoFinder's repeated-tree
  /// partitioning plays the same role of taming level growth; a frequency
  /// beam is the equivalent lever for our occurrence-list grower.
  size_t max_patterns_per_level = 0;
  /// Crash-safe progress saves, one per completed level (stage
  /// "mine_levels"): a resumed run restarts from the last saved level and
  /// produces byte-identical results (every level is a deterministic
  /// function of the previous one).
  CheckpointOptions checkpoint;
};

/// Level-wise frequent connected-subgraph miner over a single large graph,
/// in the spirit of NeMoFinder [Chen et al., SIGKDD 2006]: patterns of size
/// k+1 are grown from the occurrence lists of frequent size-k patterns by
/// extending each stored occurrence with a neighboring vertex, keeping each
/// vertex set once, and grouping by canonical form. Frequency is the F1
/// measure (distinct vertex sets, overlaps allowed) used by NeMoFinder.
///
/// A vertex set is kept where the serial loop over parents (pattern code
/// order, then occurrence order), parent vertices and neighbors first
/// reaches it. That is decided from the level's stored parents alone (see
/// DESIGN.md §5), so growth runs in parallel over fixed blocks of parents
/// on a GraphIndex and a per-level SharedCanonCache (Canonicalize past
/// kMaxPatternVertices), and the output is byte-identical for every thread
/// count. Each level's occurrence lists are held once: the next level grows
/// from them in place, and they move into the result.
///
/// Growth from occurrence lists is exhaustive under downward closure (every
/// frequent (k+1)-pattern has a size-k sub-occurrence inside a frequent
/// size-k pattern) as long as no occurrence cap or beam drops parents;
/// tests cross-check completeness against exhaustive ESU for small k.
class FrequentSubgraphMiner {
 public:
  /// `graph` must outlive the miner.
  FrequentSubgraphMiner(const Graph& graph, MinerConfig config);

  /// Runs the level-wise mining and returns all frequent patterns with sizes
  /// in [min_size, max_size], each with its occurrence list (D_g).
  /// Uniqueness is left unevaluated (-1); see uniqueness.h.
  std::vector<Motif> Mine();

 private:
  const Graph& graph_;
  MinerConfig config_;
};

}  // namespace lamo

#endif  // LAMO_MOTIF_MINER_H_
