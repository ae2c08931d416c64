#ifndef LAMO_MOTIF_ESU_ENGINE_H_
#define LAMO_MOTIF_ESU_ENGINE_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <utility>
#include <vector>

#include "graph/graph_index.h"
#include "util/logging.h"

namespace lamo {
namespace esu_internal {

/// The exhaustive Explore policy of Engine: every branch is explored.
struct ExploreAll {
  bool operator()(size_t /*depth*/) const { return true; }
};

/// The one ESU walk (Wernicke's algorithm) in this codebase, over a
/// GraphIndex. Every connected-subgraph enumeration runs on it: exhaustive
/// class counting and motif finding (RunEsu over root ranges), RAND-ESU
/// sampling (an Explore policy that flips the per-depth coins), graphlet
/// degree signatures (one RunEsu pass per size), and the pair-anchored
/// re-enumeration behind live edge updates (RunPair). Zero heap traffic per
/// tree node:
///
///  * candidate lists are appends to one flat extension stack addressed by
///    (begin, end) index frames, not per-node vector copies;
///  * the exclusive-neighborhood test "u is in, or adjacent to, the current
///    subgraph" becomes a single bit probe into a per-depth *forbidden*
///    bitset (subgraph ∪ N(subgraph)), maintained incrementally with one
///    word-parallel row OR per tree node when the index is dense;
///  * without the dense bitset (n > GraphIndex::kDenseVertexLimit) the
///    forbidden set is kept as a per-depth sorted vertex list instead, and
///    exclusive neighbors fall out of one sorted-neighbor difference walk
///    of N(w) against it (same merge kernel family as
///    GraphIndex::IntersectSorted);
///  * the deepest recursion level — the overwhelming majority of tree
///    nodes — emits candidates directly without building their extension
///    or forbidden state at all.
///
/// Only vertices >= a lower bound may join: root + 1 for a rooted walk (ESU
/// roots every set at its minimum vertex, so disjoint root ranges partition
/// the enumeration), 0 for the pair seed (every connected superset of the
/// seed edge, no root filter; the seed edge need not be in the index).
///
/// Emission order is fixed by the graph alone: roots ascending, candidates
/// in extension-stack order. The dense and CSR-only paths emit the same
/// sequence (the differential battery pins this), which is what the
/// pipelines' byte-identical output rests on.
///
/// `Emit` is invoked as emit(const VertexId* set, size_t k) with the vertex
/// set in ascending order; returning false aborts the whole enumeration
/// (matching the public callback contract). `Explore` is invoked as
/// explore(depth) before each branch is taken — once per root (depth 0) and
/// once per extension candidate of a subgraph of `depth` vertices;
/// returning false prunes the branch.
template <typename Emit, typename Explore = ExploreAll>
class Engine {
 public:
  Engine(const GraphIndex& index, size_t k, Emit emit,
         Explore explore = Explore())
      : index_(index),
        k_(k),
        words_(index.words_per_row()),
        emit_(std::move(emit)),
        explore_(std::move(explore)),
        subgraph_(k == 0 ? 0 : k),
        sorted_(k == 0 ? 0 : k) {
    if (k_ > 2) {
      // Depth d < k-2 needs a forbidden set for its children; the last two
      // levels never probe one.
      if (index_.dense()) {
        forbidden_.assign((k_ - 2) * words_, 0);
      } else {
        forbidden_lists_.resize(k_ - 2);
      }
    }
  }

  /// Enumerates all connected size-k sets rooted (at their minimum vertex)
  /// in [root_begin, root_end). Returns false iff emit aborted.
  bool RunRoots(VertexId root_begin, VertexId root_end) {
    const size_t n = index_.num_vertices();
    if (k_ == 0 || k_ > n) return true;
    root_end = std::min<VertexId>(root_end, static_cast<VertexId>(n));
    for (VertexId v = root_begin; v < root_end; ++v) {
      if (!explore_(0)) continue;
      subgraph_[0] = v;
      if (k_ == 1) {
        if (!EmitSet()) return false;
        continue;
      }
      // Neighbors are sorted, so the upward half (u > v) is a suffix.
      const auto nbrs = index_.Neighbors(v);
      extension_.assign(std::upper_bound(nbrs.begin(), nbrs.end(), v),
                        nbrs.end());
      if (k_ > 2) {
        if (index_.dense()) {
          // forbidden({v}) = {v} ∪ N(v).
          uint64_t* row = ForbiddenRow(0);
          const uint64_t* adj = index_.Row(v);
          for (size_t w = 0; w < words_; ++w) row[w] = adj[w];
          row[v >> 6] |= uint64_t{1} << (v & 63);
        } else {
          // Only vertices > root can ever be candidates, so the sorted
          // forbidden list keeps just that suffix (v itself is <= root).
          forbidden_lists_[0].assign(extension_.begin(), extension_.end());
        }
      }
      if (!Extend(1, 0, extension_.size(), v + 1)) return false;
    }
    return true;
  }

  /// Enumerates every connected size-k set of the graph *with* the edge
  /// {u, v} that contains both endpoints, each exactly once: Wernicke's
  /// exclusive-neighborhood invariant holds for any connected seed, so no
  /// root filter is needed. {u, v} is the seed edge whether or not the index
  /// holds it — only the seed's candidates and forbidden set ever see the
  /// pair, so an absent edge yields the emission sequence the graph with
  /// the edge would. Returns false iff emit aborted.
  bool RunPair(VertexId u, VertexId v) {
    LAMO_CHECK_GE(k_, size_t{2}) << "pair-seeded ESU needs k >= 2";
    LAMO_CHECK(u != v && u < index_.num_vertices() &&
               v < index_.num_vertices())
        << "pair seed {" << u << ", " << v << "} is not a vertex pair";
    subgraph_[0] = u;
    subgraph_[1] = v;
    if (k_ == 2) return EmitSet();
    // The seed candidates are N(u) ∪ N(v) minus {u, v}, ascending;
    // forbidden({u, v}) is that union plus u and v.
    const auto nu = index_.Neighbors(u);
    const auto nv = index_.Neighbors(v);
    extension_.clear();
    std::set_union(nu.begin(), nu.end(), nv.begin(), nv.end(),
                   std::back_inserter(extension_));
    extension_.erase(
        std::remove_if(extension_.begin(), extension_.end(),
                       [&](VertexId x) { return x == u || x == v; }),
        extension_.end());
    if (k_ > 3) {
      if (index_.dense()) {
        uint64_t* row = ForbiddenRow(1);
        const uint64_t* adj_u = index_.Row(u);
        const uint64_t* adj_v = index_.Row(v);
        for (size_t w = 0; w < words_; ++w) row[w] = adj_u[w] | adj_v[w];
        row[u >> 6] |= uint64_t{1} << (u & 63);
        row[v >> 6] |= uint64_t{1} << (v & 63);
      } else {
        const VertexId seed[2] = {std::min(u, v), std::max(u, v)};
        forbidden_lists_[1].clear();
        std::set_union(extension_.begin(), extension_.end(), seed, seed + 2,
                       std::back_inserter(forbidden_lists_[1]));
      }
    }
    return Extend(2, 0, extension_.size(), 0);
  }

 private:
  uint64_t* ForbiddenRow(size_t depth) {
    return forbidden_.data() + depth * words_;
  }

  static bool TestBit(const uint64_t* row, VertexId u) {
    return (row[u >> 6] >> (u & 63)) & 1;
  }

  /// Sorts the k subgraph vertices into sorted_ and emits.
  bool EmitSet() {
    for (size_t i = 0; i < k_; ++i) {
      const VertexId v = subgraph_[i];
      size_t j = i;
      for (; j > 0 && sorted_[j - 1] > v; --j) sorted_[j] = sorted_[j - 1];
      sorted_[j] = v;
    }
    return emit_(sorted_.data(), k_);
  }

  /// Extends a subgraph of `size` vertices with candidates
  /// extension_[ext_begin, ext_end); only vertices >= `lower` may join.
  /// Frames are index-based: the flat extension stack may reallocate while
  /// children append to it.
  bool Extend(size_t size, size_t ext_begin, size_t ext_end, VertexId lower) {
    if (size + 1 == k_) {
      // Leaf level: each candidate completes a size-k set; no child state.
      for (size_t i = ext_begin; i < ext_end; ++i) {
        if (!explore_(size)) continue;
        subgraph_[size] = extension_[i];
        if (!EmitSet()) return false;
      }
      return true;
    }
    const bool build_forbidden = size + 2 < k_;
    for (size_t i = ext_begin; i < ext_end; ++i) {
      if (!explore_(size)) continue;
      const VertexId w = extension_[i];
      subgraph_[size] = w;
      const size_t child_begin = extension_.size();
      // Remaining siblings stay candidates for the child (ESU).
      for (size_t j = i + 1; j < ext_end; ++j) {
        extension_.push_back(extension_[j]);
      }
      // Exclusive neighbors of w: >= lower and outside subgraph ∪
      // N(subgraph).
      const auto nbrs = index_.Neighbors(w);
      if (index_.dense()) {
        const uint64_t* forb = ForbiddenRow(size - 1);
        for (const VertexId u : nbrs) {
          if (u >= lower && !TestBit(forb, u)) extension_.push_back(u);
        }
        if (build_forbidden) {
          uint64_t* child = ForbiddenRow(size);
          const uint64_t* adj = index_.Row(w);
          for (size_t t = 0; t < words_; ++t) child[t] = forb[t] | adj[t];
          child[w >> 6] |= uint64_t{1} << (w & 63);
        }
      } else {
        // Sorted difference walk: N(w) (ascending) against the ascending
        // forbidden list — both cursors only move forward.
        const std::vector<VertexId>& forb = forbidden_lists_[size - 1];
        size_t cursor = 0;
        for (const VertexId u : nbrs) {
          if (u < lower) continue;
          while (cursor < forb.size() && forb[cursor] < u) ++cursor;
          if (cursor < forb.size() && forb[cursor] == u) continue;
          extension_.push_back(u);
        }
        if (build_forbidden) {
          // child forbidden = forb ∪ {w} ∪ {u ∈ N(w) : u >= lower}, merged in
          // one ascending pass (w itself is already in forb: it was an
          // extension candidate, hence adjacent to the subgraph).
          std::vector<VertexId>& child = forbidden_lists_[size];
          child.clear();
          size_t fi = 0;
          size_t ni = 0;
          while (ni < nbrs.size() && nbrs[ni] < lower) ++ni;
          while (fi < forb.size() || ni < nbrs.size()) {
            VertexId next;
            if (ni == nbrs.size() ||
                (fi < forb.size() && forb[fi] <= nbrs[ni])) {
              next = forb[fi++];
              if (ni < nbrs.size() && nbrs[ni] == next) ++ni;  // dedup
            } else {
              next = nbrs[ni++];
            }
            child.push_back(next);
          }
        }
      }
      const bool keep_going =
          Extend(size + 1, child_begin, extension_.size(), lower);
      extension_.resize(child_begin);
      if (!keep_going) return false;
    }
    return true;
  }

  const GraphIndex& index_;
  const size_t k_;
  const size_t words_;
  Emit emit_;
  Explore explore_;
  std::vector<VertexId> subgraph_;  // DFS order, size k
  std::vector<VertexId> sorted_;    // ascending copy for emission
  std::vector<VertexId> extension_;  // flat stack of per-depth frames
  std::vector<uint64_t> forbidden_;  // dense: (k-2) rows of n bits
  std::vector<std::vector<VertexId>> forbidden_lists_;  // sparse fallback
};

/// Deduces Emit so call sites read naturally.
template <typename Emit>
bool RunEsu(const GraphIndex& index, size_t k, VertexId root_begin,
            VertexId root_end, Emit&& emit) {
  Engine<std::decay_t<Emit>> engine(index, k, std::forward<Emit>(emit));
  return engine.RunRoots(root_begin, root_end);
}

}  // namespace esu_internal
}  // namespace lamo

#endif  // LAMO_MOTIF_ESU_ENGINE_H_
