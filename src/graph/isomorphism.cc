#include "graph/isomorphism.h"

#include <algorithm>
#include <unordered_set>

#include "graph/automorphism.h"
#include "util/logging.h"

namespace lamo {
namespace {

// Static matching order: start at the max-degree pattern vertex, then grow by
// connectivity, preferring vertices with the most already-ordered neighbors
// (most constrained first).
std::vector<uint32_t> MatchOrder(const SmallGraph& pattern) {
  const size_t k = pattern.num_vertices();
  std::vector<uint32_t> order;
  order.reserve(k);
  std::vector<bool> placed(k, false);

  uint32_t start = 0;
  for (uint32_t v = 1; v < k; ++v) {
    if (pattern.Degree(v) > pattern.Degree(start)) start = v;
  }
  order.push_back(start);
  placed[start] = true;

  while (order.size() < k) {
    int best = -1;
    size_t best_connected = 0;
    for (uint32_t v = 0; v < k; ++v) {
      if (placed[v]) continue;
      size_t connected = 0;
      for (uint32_t u : order) {
        if (pattern.HasEdge(v, u)) ++connected;
      }
      if (best < 0 || connected > best_connected ||
          (connected == best_connected &&
           pattern.Degree(v) > pattern.Degree(static_cast<uint32_t>(best)))) {
        best = static_cast<int>(v);
        best_connected = connected;
      }
    }
    LAMO_CHECK_GE(best, 0);
    // A connected pattern always has a next vertex touching the ordered
    // prefix; disconnected patterns are matched component by component.
    order.push_back(static_cast<uint32_t>(best));
    placed[best] = true;
  }
  return order;
}

class Vf2State {
 public:
  Vf2State(const SmallGraph& pattern, const Graph& target,
           const EmbeddingOptions& options,
           const std::function<bool(const Embedding&)>& callback)
      : pattern_(pattern),
        target_(target),
        options_(options),
        callback_(callback),
        order_(MatchOrder(pattern)),
        map_(pattern.num_vertices(), kInvalidVertex) {
    // Precompute, for each position, the matched pattern neighbors and
    // matched pattern non-neighbors of the vertex placed there.
    const size_t k = pattern.num_vertices();
    matched_neighbors_.resize(k);
    matched_non_neighbors_.resize(k);
    for (size_t pos = 0; pos < k; ++pos) {
      const uint32_t u = order_[pos];
      for (size_t prev = 0; prev < pos; ++prev) {
        const uint32_t w = order_[prev];
        if (pattern.HasEdge(u, w)) {
          matched_neighbors_[pos].push_back(w);
        } else {
          matched_non_neighbors_[pos].push_back(w);
        }
      }
    }
  }

  // Runs the enumeration; returns false if the callback aborted.
  bool Run() { return Extend(0); }

 private:
  bool Extend(size_t pos) {
    const size_t k = pattern_.num_vertices();
    if (pos == k) {
      ++emitted_;
      const bool keep_going = callback_(map_);
      if (options_.max_embeddings != 0 &&
          emitted_ >= options_.max_embeddings) {
        return false;
      }
      return keep_going;
    }
    const uint32_t u = order_[pos];
    const size_t u_degree = pattern_.Degree(u);

    if (matched_neighbors_[pos].empty()) {
      // Root of a component: scan all target vertices.
      for (VertexId cand = 0; cand < target_.num_vertices(); ++cand) {
        if (!TryCandidate(pos, u, u_degree, cand)) return false;
      }
      return true;
    }
    // Candidates come from the neighborhood of the matched image with the
    // smallest target degree (tightest candidate set).
    VertexId anchor = map_[matched_neighbors_[pos][0]];
    for (uint32_t w : matched_neighbors_[pos]) {
      if (target_.Degree(map_[w]) < target_.Degree(anchor)) anchor = map_[w];
    }
    for (VertexId cand : target_.Neighbors(anchor)) {
      if (!TryCandidate(pos, u, u_degree, cand)) return false;
    }
    return true;
  }

  // Returns false iff enumeration must stop entirely.
  bool TryCandidate(size_t pos, uint32_t u, size_t u_degree, VertexId cand) {
    // The images matched so far are map_ at order_[0..pos): a scan of at
    // most k entries, with no per-candidate allocation.
    for (size_t prev = 0; prev < pos; ++prev) {
      if (map_[order_[prev]] == cand) return true;
    }
    if (target_.Degree(cand) < u_degree) return true;
    for (uint32_t w : matched_neighbors_[pos]) {
      if (!target_.HasEdge(cand, map_[w])) return true;
    }
    if (options_.induced) {
      for (uint32_t w : matched_non_neighbors_[pos]) {
        if (target_.HasEdge(cand, map_[w])) return true;
      }
    }
    map_[u] = cand;
    const bool keep_going = Extend(pos + 1);
    map_[u] = kInvalidVertex;
    return keep_going;
  }

  const SmallGraph& pattern_;
  const Graph& target_;
  const EmbeddingOptions& options_;
  const std::function<bool(const Embedding&)>& callback_;
  std::vector<uint32_t> order_;
  Embedding map_;
  std::vector<std::vector<uint32_t>> matched_neighbors_;
  std::vector<std::vector<uint32_t>> matched_non_neighbors_;
  size_t emitted_ = 0;
};

}  // namespace

void ForEachEmbedding(const SmallGraph& pattern, const Graph& target,
                      const EmbeddingOptions& options,
                      const std::function<bool(const Embedding&)>& callback) {
  if (pattern.num_vertices() == 0 ||
      pattern.num_vertices() > target.num_vertices()) {
    return;
  }
  Vf2State state(pattern, target, options, callback);
  state.Run();
}

std::vector<Embedding> FindEmbeddings(const SmallGraph& pattern,
                                      const Graph& target,
                                      const EmbeddingOptions& options) {
  std::vector<Embedding> embeddings;
  ForEachEmbedding(pattern, target, options,
                   [&](const Embedding& e) {
                     embeddings.push_back(e);
                     return true;
                   });
  return embeddings;
}

std::vector<std::vector<VertexId>> FindOccurrences(const SmallGraph& pattern,
                                                   const Graph& target,
                                                   size_t max_occurrences) {
  std::unordered_set<std::vector<VertexId>, VertexSetHash> seen;
  std::vector<std::vector<VertexId>> occurrences;
  EmbeddingOptions options;  // induced
  ForEachEmbedding(pattern, target, options, [&](const Embedding& e) {
    std::vector<VertexId> sorted = e;
    std::sort(sorted.begin(), sorted.end());
    if (seen.insert(sorted).second) {
      occurrences.push_back(std::move(sorted));
      if (max_occurrences != 0 && occurrences.size() >= max_occurrences) {
        return false;
      }
    }
    return true;
  });
  return occurrences;
}

size_t CountOccurrences(const SmallGraph& pattern, const Graph& target,
                        size_t cap) {
  // Each vertex set inducing `pattern` is hit by exactly |Aut(pattern)|
  // induced embeddings, one per automorphism, so the occurrence count is
  // the embedding count divided by |Aut| -- no set of seen vertex sets.
  // c occurrences are certain once c * |Aut| embeddings have been seen.
  const uint64_t aut = AutomorphismGroupSize(pattern);
  const uint64_t limit =
      cap == 0 ? 0 : (cap > UINT64_MAX / aut ? UINT64_MAX : cap * aut);
  uint64_t embeddings = 0;
  EmbeddingOptions options;  // induced
  options.max_embeddings = static_cast<size_t>(limit);
  ForEachEmbedding(pattern, target, options, [&](const Embedding&) {
    ++embeddings;
    return true;
  });
  if (limit != 0 && embeddings >= limit) return cap;
  LAMO_CHECK_EQ(embeddings % aut, 0u)
      << "induced embeddings are not a multiple of |Aut(pattern)|";
  return static_cast<size_t>(embeddings / aut);
}

}  // namespace lamo
