#include "graph/directed_isomorphism.h"

#include <algorithm>
#include <set>
#include <unordered_set>

#include "util/logging.h"

namespace lamo {
namespace {

// Matching order over the underlying connectivity, most-constrained first.
std::vector<uint32_t> MatchOrder(const SmallDigraph& pattern) {
  const size_t k = pattern.num_vertices();
  const SmallGraph underlying = pattern.Underlying();
  std::vector<uint32_t> order;
  std::vector<bool> placed(k, false);
  uint32_t start = 0;
  for (uint32_t v = 1; v < k; ++v) {
    if (underlying.Degree(v) > underlying.Degree(start)) start = v;
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
        if (underlying.HasEdge(v, u)) ++connected;
      }
      if (best < 0 || connected > best_connected) {
        best = static_cast<int>(v);
        best_connected = connected;
      }
    }
    order.push_back(static_cast<uint32_t>(best));
    placed[best] = true;
  }
  return order;
}

class DirectedVf2 {
 public:
  DirectedVf2(const SmallDigraph& pattern, const DiGraph& target,
              const DirectedEmbeddingOptions& options,
              const std::function<bool(const std::vector<VertexId>&)>& cb)
      : pattern_(pattern),
        target_(target),
        options_(options),
        callback_(cb),
        order_(MatchOrder(pattern)),
        map_(pattern.num_vertices(), kInvalidVertex) {}

  void Run() { Extend(0); }

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

    // Candidate pool: the tightest neighborhood of a matched image touching
    // u in the pattern (via out- or in-arc); fall back to all vertices at
    // component roots.
    std::vector<VertexId> candidates;
    bool have_anchor = false;
    size_t best_size = 0;
    bool anchor_out = false;
    VertexId anchor = kInvalidVertex;
    for (size_t prev = 0; prev < pos; ++prev) {
      const uint32_t w = order_[prev];
      if (pattern_.HasArc(w, u)) {
        const size_t size = target_.OutDegree(map_[w]);
        if (!have_anchor || size < best_size) {
          have_anchor = true;
          best_size = size;
          anchor = map_[w];
          anchor_out = true;
        }
      }
      if (pattern_.HasArc(u, w)) {
        const size_t size = target_.InDegree(map_[w]);
        if (!have_anchor || size < best_size) {
          have_anchor = true;
          best_size = size;
          anchor = map_[w];
          anchor_out = false;
        }
      }
    }
    if (have_anchor) {
      const auto pool = anchor_out ? target_.OutNeighbors(anchor)
                                   : target_.InNeighbors(anchor);
      candidates.assign(pool.begin(), pool.end());
    } else {
      candidates.resize(target_.num_vertices());
      for (VertexId v = 0; v < target_.num_vertices(); ++v) candidates[v] = v;
    }

    for (VertexId cand : candidates) {
      if (used_.count(cand) != 0) continue;
      if (target_.OutDegree(cand) < pattern_.OutDegree(u)) continue;
      if (target_.InDegree(cand) < pattern_.InDegree(u)) continue;
      bool consistent = true;
      for (size_t prev = 0; prev < pos && consistent; ++prev) {
        const uint32_t w = order_[prev];
        const bool pattern_uw = pattern_.HasArc(u, w);
        const bool pattern_wu = pattern_.HasArc(w, u);
        const bool target_uw = target_.HasArc(cand, map_[w]);
        const bool target_wu = target_.HasArc(map_[w], cand);
        if (options_.induced) {
          consistent = pattern_uw == target_uw && pattern_wu == target_wu;
        } else {
          consistent = (!pattern_uw || target_uw) && (!pattern_wu || target_wu);
        }
      }
      if (!consistent) continue;
      map_[u] = cand;
      used_.insert(cand);
      const bool keep_going = Extend(pos + 1);
      used_.erase(cand);
      map_[u] = kInvalidVertex;
      if (!keep_going) return false;
    }
    return true;
  }

  const SmallDigraph& pattern_;
  const DiGraph& target_;
  const DirectedEmbeddingOptions& options_;
  const std::function<bool(const std::vector<VertexId>&)>& callback_;
  std::vector<uint32_t> order_;
  std::vector<VertexId> map_;
  std::unordered_set<VertexId> used_;
  size_t emitted_ = 0;
};

}  // namespace

void ForEachDirectedEmbedding(
    const SmallDigraph& pattern, const DiGraph& target,
    const DirectedEmbeddingOptions& options,
    const std::function<bool(const std::vector<VertexId>&)>& callback) {
  if (pattern.num_vertices() == 0 ||
      pattern.num_vertices() > target.num_vertices()) {
    return;
  }
  DirectedVf2 state(pattern, target, options, callback);
  state.Run();
}

std::vector<std::vector<VertexId>> FindDirectedEmbeddings(
    const SmallDigraph& pattern, const DiGraph& target,
    const DirectedEmbeddingOptions& options) {
  std::vector<std::vector<VertexId>> embeddings;
  ForEachDirectedEmbedding(pattern, target, options,
                           [&](const std::vector<VertexId>& e) {
                             embeddings.push_back(e);
                             return true;
                           });
  return embeddings;
}

std::vector<std::vector<VertexId>> FindDirectedOccurrences(
    const SmallDigraph& pattern, const DiGraph& target,
    size_t max_occurrences) {
  std::unordered_set<std::vector<VertexId>, VertexSetHash> seen;
  std::vector<std::vector<VertexId>> occurrences;
  DirectedEmbeddingOptions options;
  ForEachDirectedEmbedding(
      pattern, target, options, [&](const std::vector<VertexId>& e) {
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

size_t CountDirectedOccurrences(const SmallDigraph& pattern,
                                const DiGraph& target, size_t cap) {
  return FindDirectedOccurrences(pattern, target, cap).size();
}

}  // namespace lamo
