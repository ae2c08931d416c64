#ifndef LAMO_GRAPH_ISOMORPHISM_H_
#define LAMO_GRAPH_ISOMORPHISM_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "graph/graph.h"
#include "graph/small_graph.h"

namespace lamo {

/// One embedding of a pattern into a target: mapping[i] is the target vertex
/// playing the role of pattern vertex i.
using Embedding = std::vector<VertexId>;

/// Options for subgraph-embedding enumeration.
struct EmbeddingOptions {
  /// If true (the default, and what motif occurrence counting needs), demand
  /// vertex-induced embeddings: pattern non-edges must be target non-edges.
  bool induced = true;
  /// Stop after this many embeddings have been emitted (0 = unlimited).
  size_t max_embeddings = 0;
};

/// VF2-style backtracking enumeration of all embeddings of `pattern` into
/// `target`. Calls `callback` for each embedding; if the callback returns
/// false, enumeration stops early. Pattern vertices are matched in a
/// connectivity-respecting static order; candidate target vertices for
/// non-root positions are drawn from neighborhoods of already-matched
/// vertices, so runtime scales with the pattern's embedding count rather
/// than |target|^|pattern|.
void ForEachEmbedding(const SmallGraph& pattern, const Graph& target,
                      const EmbeddingOptions& options,
                      const std::function<bool(const Embedding&)>& callback);

/// Collects embeddings into a vector (respecting options.max_embeddings).
std::vector<Embedding> FindEmbeddings(const SmallGraph& pattern,
                                      const Graph& target,
                                      const EmbeddingOptions& options = {});

/// Enumerates *occurrences*: distinct vertex sets that induce a subgraph
/// isomorphic to `pattern` (each set reported once, sorted ascending),
/// which is the paper's D_g. `max_occurrences` of 0 means unlimited.
std::vector<std::vector<VertexId>> FindOccurrences(const SmallGraph& pattern,
                                                   const Graph& target,
                                                   size_t max_occurrences = 0);

/// Counts occurrences, returning `cap` once that many are certain if
/// nonzero. Counts induced embeddings and divides by |Aut(pattern)|, so it
/// allocates nothing per embedding; FindOccurrences is its oracle.
size_t CountOccurrences(const SmallGraph& pattern, const Graph& target,
                        size_t cap = 0);

}  // namespace lamo

#endif  // LAMO_GRAPH_ISOMORPHISM_H_
