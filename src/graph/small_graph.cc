#include "graph/small_graph.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>

#include "util/logging.h"

namespace lamo {

SmallGraph::SmallGraph(size_t n) : n_(n) {
  LAMO_CHECK_LE(n, kMaxVertices);
  std::memset(rows_, 0, sizeof(rows_));
}

StatusOr<SmallGraph> SmallGraph::FromEdges(
    size_t n, const std::vector<std::pair<uint32_t, uint32_t>>& edges) {
  if (n > kMaxVertices) {
    return Status::InvalidArgument("SmallGraph supports at most 64 vertices");
  }
  SmallGraph g(n);
  for (const auto& [a, b] : edges) {
    if (a >= n || b >= n) {
      return Status::InvalidArgument("edge endpoint out of range");
    }
    if (a == b) {
      return Status::InvalidArgument("self-loop not allowed");
    }
    g.AddEdge(a, b);
  }
  return g;
}

SmallGraph SmallGraph::InducedSubgraph(const Graph& g,
                                       const std::vector<VertexId>& vertices) {
  LAMO_CHECK_LE(vertices.size(), kMaxVertices);
  SmallGraph sub(vertices.size());
  for (size_t i = 0; i < vertices.size(); ++i) {
    for (size_t j = i + 1; j < vertices.size(); ++j) {
      LAMO_CHECK_NE(vertices[i], vertices[j]);
      if (g.HasEdge(vertices[i], vertices[j])) {
        sub.AddEdge(static_cast<uint32_t>(i), static_cast<uint32_t>(j));
      }
    }
  }
  return sub;
}

size_t SmallGraph::num_edges() const {
  size_t total = 0;
  for (size_t v = 0; v < n_; ++v) total += Degree(static_cast<uint32_t>(v));
  return total / 2;
}

void SmallGraph::AddEdge(uint32_t a, uint32_t b) {
  assert(a < n_ && b < n_);
  if (a == b) return;
  rows_[a] |= 1ULL << b;
  rows_[b] |= 1ULL << a;
}

void SmallGraph::RemoveEdge(uint32_t a, uint32_t b) {
  assert(a < n_ && b < n_);
  rows_[a] &= ~(1ULL << b);
  rows_[b] &= ~(1ULL << a);
}

size_t SmallGraph::Degree(uint32_t v) const {
  assert(v < n_);
  return static_cast<size_t>(std::popcount(rows_[v]));
}

std::vector<std::pair<uint32_t, uint32_t>> SmallGraph::Edges() const {
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  for (uint32_t v = 0; v < n_; ++v) {
    // Neighbors above v; 2 << 63 wraps to 0, so vertex 63 keeps none.
    uint64_t higher = rows_[v] & ~((uint64_t{2} << v) - 1);
    while (higher != 0) {
      uint32_t u = static_cast<uint32_t>(std::countr_zero(higher));
      edges.emplace_back(v, u);
      higher &= higher - 1;
    }
  }
  return edges;
}

std::vector<uint32_t> SmallGraph::Neighbors(uint32_t v) const {
  std::vector<uint32_t> nbrs;
  uint64_t mask = rows_[v];
  while (mask != 0) {
    nbrs.push_back(static_cast<uint32_t>(std::countr_zero(mask)));
    mask &= mask - 1;
  }
  return nbrs;
}

bool SmallGraph::IsConnected() const {
  if (n_ == 0) return true;
  uint64_t visited = 1ULL;
  uint64_t frontier = 1ULL;
  while (frontier != 0) {
    uint64_t next = 0;
    uint64_t f = frontier;
    while (f != 0) {
      uint32_t v = static_cast<uint32_t>(std::countr_zero(f));
      next |= rows_[v];
      f &= f - 1;
    }
    frontier = next & ~visited;
    visited |= next;
  }
  const uint64_t all =
      n_ == 64 ? ~0ULL : ((1ULL << n_) - 1);
  return (visited & all) == all;
}

SmallGraph SmallGraph::Permuted(const std::vector<uint32_t>& perm) const {
  LAMO_CHECK_EQ(perm.size(), n_);
  SmallGraph out(n_);
  for (uint32_t i = 0; i < n_; ++i) {
    for (uint32_t j = i + 1; j < n_; ++j) {
      if (HasEdge(perm[i], perm[j])) out.AddEdge(i, j);
    }
  }
  return out;
}

std::vector<uint8_t> SmallGraph::AdjacencyCode() const {
  std::vector<uint8_t> code;
  code.reserve(n_ * (n_ - 1) / 16 + 2);
  code.push_back(static_cast<uint8_t>(n_));
  uint8_t current = 0;
  int bits = 0;
  for (uint32_t i = 0; i < n_; ++i) {
    for (uint32_t j = i + 1; j < n_; ++j) {
      current = static_cast<uint8_t>((current << 1) | (HasEdge(i, j) ? 1 : 0));
      if (++bits == 8) {
        code.push_back(current);
        current = 0;
        bits = 0;
      }
    }
  }
  if (bits > 0) {
    code.push_back(static_cast<uint8_t>(current << (8 - bits)));
  }
  return code;
}

std::string SmallGraph::ToString() const {
  std::string out = "SmallGraph(n=" + std::to_string(n_) + ", edges={";
  bool first = true;
  for (const auto& [a, b] : Edges()) {
    if (!first) out += ", ";
    first = false;
    out += "{" + std::to_string(a) + "," + std::to_string(b) + "}";
  }
  out += "})";
  return out;
}

}  // namespace lamo
