#ifndef LAMO_MOTIF_ESU_H_
#define LAMO_MOTIF_ESU_H_

#include <functional>
#include <map>
#include <vector>

#include "graph/graph.h"
#include "graph/small_graph.h"
#include "motif/canon_cache.h"
#include "util/random.h"

namespace lamo {

/// Exhaustive enumeration of all connected vertex sets of size k (FANMOD's
/// ESU algorithm, Wernicke 2006). Each set is emitted exactly once, in
/// ascending vertex order. Return false from the callback to stop early.
///
/// ESU is the exhaustive ground truth we cross-check the level-wise
/// NeMoFinder-style miner against (practical for k <= ~6 on PPI-scale
/// networks). Runs on the index-centric engine (a GraphIndex is built
/// internally); hot paths that reuse one index call esu_internal::RunEsu
/// (motif/esu_engine.h) directly.
void EnumerateConnectedSubgraphs(
    const Graph& g, size_t k,
    const std::function<bool(const std::vector<VertexId>&)>& callback);

/// The root-range chunk size the parallel ESU pipelines use for a graph of
/// `num_vertices` vertices (small, to balance hub-dominated root costs).
size_t EsuRootGrain(size_t num_vertices);

/// Counts connected size-k vertex sets per isomorphism class. The key is the
/// canonical code of the induced subgraph. Runs on the parallel runtime
/// (serially when ThreadCount() == 1 or already inside a parallel region);
/// results are identical for any thread count.
std::map<std::vector<uint8_t>, size_t> CountSubgraphClasses(const Graph& g,
                                                            size_t k);

/// As above, but resolving canonical codes through a caller-owned shared
/// canonicalization table (which must have been built for the same k).
/// FindNetworkMotifsEsu threads one table through the real network and all
/// uniqueness replicates, so each adjacency pattern is canonicalized once
/// per run instead of once per chunk per network. Passing nullptr (or any
/// k > SharedCanonCache::kMaxK) uses chunk-local caches instead; results
/// are identical either way.
std::map<std::vector<uint8_t>, size_t> CountSubgraphClasses(
    const Graph& g, size_t k, SharedCanonCache* shared_canon);

/// RAND-ESU (Wernicke): each branch of the ESU tree is explored with the
/// per-depth probability from `probabilities` (size k; product = sampling
/// fraction). Unbiased estimates of subgraph-class *concentrations* are
/// obtained by weighting each sample by 1/P(sampled). This is the
/// mfinder-style sampling estimator of Kashtan et al. (2004) in its
/// corrected ESU form. Runs on the index engine with a coin-flip Explore
/// policy; the RNG draw sequence depends only on (g, k, probabilities).
struct SampledSubgraphCounts {
  /// Estimated total number of connected size-k sets.
  double estimated_total = 0;
  /// Estimated count per canonical class.
  std::map<std::vector<uint8_t>, double> estimated_counts;
  /// Number of sets actually sampled.
  size_t samples = 0;
};

SampledSubgraphCounts SampleSubgraphClasses(
    const Graph& g, size_t k, const std::vector<double>& probabilities,
    Rng& rng);

}  // namespace lamo

#endif  // LAMO_MOTIF_ESU_H_
