#include "graph/graph.h"

#include <algorithm>
#include <string_view>

#include "util/bytes.h"
#include "util/logging.h"

namespace lamo {

size_t VertexSetHash::operator()(const std::vector<VertexId>& vs) const {
  return static_cast<size_t>(
      Fnv1a64(std::string_view(reinterpret_cast<const char*>(vs.data()),
                               vs.size() * sizeof(VertexId))));
}

bool Graph::HasEdge(VertexId a, VertexId b) const {
  if (a >= num_vertices() || b >= num_vertices()) return false;
  // Probe the smaller adjacency list.
  if (Degree(a) > Degree(b)) std::swap(a, b);
  auto nbrs = Neighbors(a);
  return std::binary_search(nbrs.begin(), nbrs.end(), b);
}

std::vector<std::pair<VertexId, VertexId>> Graph::Edges() const {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(num_edges());
  for (VertexId v = 0; v < num_vertices(); ++v) {
    for (VertexId u : Neighbors(v)) {
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return edges;
}

std::vector<size_t> Graph::Degrees() const {
  std::vector<size_t> degrees(num_vertices());
  for (VertexId v = 0; v < num_vertices(); ++v) degrees[v] = Degree(v);
  return degrees;
}

size_t Graph::MaxDegree() const {
  size_t max_degree = 0;
  for (VertexId v = 0; v < num_vertices(); ++v) {
    max_degree = std::max(max_degree, Degree(v));
  }
  return max_degree;
}

std::string Graph::ToString() const {
  return "Graph(" + std::to_string(num_vertices()) + " vertices, " +
         std::to_string(num_edges()) + " edges)";
}

Status GraphBuilder::AddEdge(VertexId a, VertexId b) {
  if (a >= num_vertices_ || b >= num_vertices_) {
    return Status::InvalidArgument(
        "edge endpoint out of range: {" + std::to_string(a) + ", " +
        std::to_string(b) + "} with " + std::to_string(num_vertices_) +
        " vertices");
  }
  if (a == b) return Status::OK();  // self-links removed, per the paper
  if (a > b) std::swap(a, b);
  edges_.emplace_back(a, b);
  return Status::OK();
}

Graph GraphBuilder::Build() const {
  std::vector<std::pair<VertexId, VertexId>> edges = edges_;
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  Graph g;
  g.offsets_.assign(num_vertices_ + 1, 0);
  for (const auto& [a, b] : edges) {
    ++g.offsets_[a + 1];
    ++g.offsets_[b + 1];
  }
  for (size_t v = 1; v <= num_vertices_; ++v) {
    g.offsets_[v] += g.offsets_[v - 1];
  }
  g.neighbors_.resize(edges.size() * 2);
  std::vector<size_t> cursor(g.offsets_.begin(), g.offsets_.end() - 1);
  for (const auto& [a, b] : edges) {
    g.neighbors_[cursor[a]++] = b;
    g.neighbors_[cursor[b]++] = a;
  }
  // Each vertex's slice is already sorted because edges were emitted in
  // lexicographic order, but re-sorting keeps the invariant explicit and
  // robust against future changes.
  for (size_t v = 0; v < num_vertices_; ++v) {
    std::sort(g.neighbors_.begin() + g.offsets_[v],
              g.neighbors_.begin() + g.offsets_[v + 1]);
  }
  return g;
}

Graph ToggleEdge(const Graph& g, VertexId a, VertexId b) {
  LAMO_CHECK(a != b && a < g.num_vertices() && b < g.num_vertices());
  const std::pair<VertexId, VertexId> edge = std::minmax(a, b);
  GraphBuilder builder(g.num_vertices());
  for (const auto& e : g.Edges()) {
    if (e != edge) (void)builder.AddEdge(e.first, e.second);  // in range
  }
  if (!g.HasEdge(a, b)) (void)builder.AddEdge(a, b);
  return builder.Build();
}

}  // namespace lamo
