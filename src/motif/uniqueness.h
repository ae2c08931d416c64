#ifndef LAMO_MOTIF_UNIQUENESS_H_
#define LAMO_MOTIF_UNIQUENESS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "motif/miner.h"
#include "motif/motif.h"
#include "util/checkpoint.h"

namespace lamo {

/// Parameters of the motif uniqueness test (Task 2 of motif finding).
struct UniquenessConfig {
  /// Number of degree-preserving randomized networks to compare against.
  /// 0 skips the test and leaves every uniqueness unevaluated (-1).
  size_t num_random_networks = 10;
  /// Edge swaps per edge when randomizing.
  double swaps_per_edge = 3.0;
  /// Seed for the randomization ensemble.
  uint64_t seed = 42;
};

/// Counts the motifs of a list, in list order, in one randomized network.
/// Entry i may stop at motif i's real frequency + 1: the test only asks
/// whether the randomized count exceeds the real one. Called concurrently
/// from the ensemble's tasks.
using ReplicateCounter =
    std::function<std::vector<size_t>(const Graph& randomized)>;

/// The uniqueness ensemble both mining routes share. Sets each motif's
/// uniqueness s(g) to the share of randomized networks in which its real
/// frequency is greater than or equal to its randomized count [Milo et al.
/// 2002; Section 5.1 of the paper]. With no motifs or no networks it
/// returns at once and runs no replicate.
///
/// Replicate r rewires `graph` with Rng::Stream(config.seed, r) and runs
/// as one task on the parallel runtime, so scores are independent of the
/// thread count. With `checkpoint` on, replicates run in groups of
/// `every`: `fault_point` is hit before each group and the win counts are
/// saved after it as checkpoint stage `stage` under `fingerprint`, which
/// must change whenever the motif list can. A resumed ensemble is
/// byte-identical to an uninterrupted one.
void ScoreUniqueness(const Graph& graph, const UniquenessConfig& config,
                     const CheckpointOptions& checkpoint,
                     const std::string& stage, uint64_t fingerprint,
                     size_t fault_point, const ReplicateCounter& count,
                     std::vector<Motif>* motifs);

/// The level-wise route's uniqueness test (checkpoint stage "uniqueness"):
/// ScoreUniqueness with a VF2 CountOccurrences counter capped at the real
/// frequency + 1, so rare patterns are cheap to test.
void EvaluateUniqueness(const Graph& graph, const UniquenessConfig& config,
                        std::vector<Motif>* motifs,
                        const CheckpointOptions& checkpoint = {});

/// Keeps motifs with uniqueness >= `threshold` (the paper keeps > 0.95)
/// and motifs whose uniqueness was never evaluated (-1).
std::vector<Motif> FilterUnique(std::vector<Motif> motifs, double threshold);

/// Configuration of FindNetworkMotifs. miner.checkpoint saves both stages:
/// the miner ("mine_levels") and the uniqueness ensemble ("uniqueness").
struct MotifFindingConfig {
  MinerConfig miner;
  UniquenessConfig uniqueness;
  /// Motifs below this uniqueness are discarded (paper: > 0.95).
  double uniqueness_threshold = 0.95;
};

/// One-call facade for Tasks 1+2: mines frequent patterns (miner.h) and
/// filters them by uniqueness, returning the network motifs the labeling
/// stage consumes.
std::vector<Motif> FindNetworkMotifs(const Graph& graph,
                                     const MotifFindingConfig& config);

}  // namespace lamo

#endif  // LAMO_MOTIF_UNIQUENESS_H_
