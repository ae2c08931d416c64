#ifndef LAMO_GRAPH_GRAPH_H_
#define LAMO_GRAPH_GRAPH_H_

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace lamo {

/// Vertex identifier within a Graph. Vertices are dense 0..n-1.
using VertexId = uint32_t;

/// Sentinel for "no vertex".
inline constexpr VertexId kInvalidVertex = static_cast<VertexId>(-1);

/// Hash of a vertex-id list (FNV-1a 64 over the ids' bytes), for in-memory
/// sets of sorted occurrence vertex sets. Never persisted.
struct VertexSetHash {
  size_t operator()(const std::vector<VertexId>& vs) const;
};

/// An immutable, simple, undirected graph in CSR (compressed sparse row)
/// form with sorted neighbor lists. This is the representation used for the
/// interactome: the PPI networks in the paper have thousands of vertices and
/// edges, and motif mining spends nearly all of its time in adjacency probes,
/// so neighbors are kept sorted for O(log d) `HasEdge` and cache-friendly
/// iteration.
///
/// Build one via GraphBuilder, which removes self-links and redundant links
/// exactly as the paper's preprocessing does.
class Graph {
 public:
  /// Creates an empty graph (0 vertices).
  Graph() = default;

  /// Number of vertices.
  size_t num_vertices() const { return offsets_.empty() ? 0 : offsets_.size() - 1; }

  /// Number of undirected edges.
  size_t num_edges() const { return neighbors_.size() / 2; }

  /// Sorted neighbors of `v`.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            neighbors_.data() + offsets_[v + 1]};
  }

  /// Degree of `v`.
  size_t Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// True iff the undirected edge {a, b} exists. O(log min-degree).
  bool HasEdge(VertexId a, VertexId b) const;

  /// All undirected edges, each reported once with first < second, in
  /// lexicographic order.
  std::vector<std::pair<VertexId, VertexId>> Edges() const;

  /// Degree sequence indexed by vertex.
  std::vector<size_t> Degrees() const;

  /// Maximum degree over all vertices (0 for the empty graph).
  size_t MaxDegree() const;

  /// Human-readable one-line summary, e.g. "Graph(4141 vertices, 7095 edges)".
  std::string ToString() const;

 private:
  friend class GraphBuilder;
  // Snapshot serialization (serve/snapshot.cc) restores the CSR arrays
  // directly so loading skips the builder's sort/dedup pass.
  friend struct SnapshotAccess;

  std::vector<size_t> offsets_;      // size n+1
  std::vector<VertexId> neighbors_;  // size 2m, sorted per vertex
};

/// Accumulates edges and produces a Graph. Duplicate edges and self-links are
/// dropped (mirroring the paper's preprocessing of the BIND data, which
/// removed "redundant links and self-links").
class GraphBuilder {
 public:
  /// Creates a builder for a graph over `num_vertices` vertices.
  explicit GraphBuilder(size_t num_vertices) : num_vertices_(num_vertices) {}

  /// Adds the undirected edge {a, b}. Self-links are silently ignored;
  /// duplicates are deduplicated at Build time. Returns InvalidArgument if
  /// either endpoint is out of range.
  Status AddEdge(VertexId a, VertexId b);

  /// Number of vertices the resulting graph will have.
  size_t num_vertices() const { return num_vertices_; }

  /// Finalizes into an immutable Graph. The builder may be reused afterwards
  /// (it retains its edges).
  Graph Build() const;

 private:
  size_t num_vertices_;
  std::vector<std::pair<VertexId, VertexId>> edges_;
};

/// `g` with the undirected edge {a, b} removed if present and added if
/// absent, built through GraphBuilder (so the CSR arrays equal a fresh build
/// of the edited edge list). Requires a != b, both in range.
Graph ToggleEdge(const Graph& g, VertexId a, VertexId b);

}  // namespace lamo

#endif  // LAMO_GRAPH_GRAPH_H_
