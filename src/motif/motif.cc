#include "motif/motif.h"

namespace lamo {

std::string Motif::ToString() const {
  std::string out = "Motif(size=" + std::to_string(size()) +
                    ", edges=" + std::to_string(pattern.num_edges()) +
                    ", freq=" + std::to_string(frequency);
  if (uniqueness >= 0.0) {
    out += ", uniq=" + std::to_string(uniqueness);
  }
  out += ")";
  return out;
}

void EncodeSmallGraph(const SmallGraph& g, ByteWriter* w) {
  w->PutU32(static_cast<uint32_t>(g.num_vertices()));
  const auto edges = g.Edges();
  w->PutU32(static_cast<uint32_t>(edges.size()));
  for (const auto& [a, b] : edges) {
    w->PutU8(static_cast<uint8_t>(a));
    w->PutU8(static_cast<uint8_t>(b));
  }
}

Status DecodeSmallGraph(ByteReader* r, SmallGraph* g) {
  uint32_t n = 0;
  LAMO_RETURN_IF_ERROR(r->GetU32(&n));
  if (n > SmallGraph::kMaxVertices) {
    return Status::Corruption("SmallGraph vertex count out of range");
  }
  uint32_t num_edges = 0;
  LAMO_RETURN_IF_ERROR(r->GetU32(&num_edges));
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  edges.reserve(num_edges);
  for (uint32_t i = 0; i < num_edges; ++i) {
    uint8_t a = 0, b = 0;
    LAMO_RETURN_IF_ERROR(r->GetU8(&a));
    LAMO_RETURN_IF_ERROR(r->GetU8(&b));
    edges.emplace_back(a, b);
  }
  StatusOr<SmallGraph> built = SmallGraph::FromEdges(n, edges);
  if (!built.ok()) {
    return Status::Corruption("SmallGraph edges invalid: " +
                              built.status().message());
  }
  *g = std::move(built).value();
  return Status::OK();
}

void EncodeOccurrences(const OccurrenceList& occurrences, ByteWriter* w) {
  w->PutU64(occurrences.size());
  for (const std::span<const VertexId> occ : occurrences) {
    w->PutU64(occ.size());
    for (const VertexId v : occ) w->PutU32(v);
  }
}

Status DecodeOccurrences(ByteReader* r, size_t k, OccurrenceList* out) {
  uint64_t num_occurrences = 0;
  LAMO_RETURN_IF_ERROR(r->GetU64(&num_occurrences));
  // Each record is a u64 length and k u32 ids, so the count is bounded by
  // the bytes left; checking that up front lets the list be sized once.
  if (k == 0 ? num_occurrences != 0
             : num_occurrences > r->remaining() / (8 + 4 * k)) {
    return Status::Corruption("occurrence count out of range");
  }
  *out = OccurrenceList(k);
  out->reserve(static_cast<size_t>(num_occurrences));
  for (uint64_t i = 0; i < num_occurrences; ++i) {
    uint64_t num_proteins = 0;
    LAMO_RETURN_IF_ERROR(r->GetU64(&num_proteins));
    if (num_proteins != k) {
      return Status::Corruption("occurrence size does not match the pattern");
    }
    for (VertexId& v : out->push_back_uninitialized()) {
      LAMO_RETURN_IF_ERROR(r->GetU32(&v));
    }
  }
  return Status::OK();
}

void EncodeMotif(const Motif& m, ByteWriter* w) {
  EncodeSmallGraph(m.pattern, w);
  w->PutU64(m.code.size());
  for (const uint8_t b : m.code) w->PutU8(b);
  EncodeOccurrences(m.occurrences, w);
  w->PutU64(m.frequency);
  w->PutDouble(m.uniqueness);
  w->PutU64(m.symmetric_sets_override.size());
  for (const auto& set : m.symmetric_sets_override) {
    w->PutU64(set.size());
    for (const uint32_t v : set) w->PutU32(v);
  }
}

Status DecodeMotif(ByteReader* r, Motif* m) {
  LAMO_RETURN_IF_ERROR(DecodeSmallGraph(r, &m->pattern));
  uint64_t code_size = 0;
  LAMO_RETURN_IF_ERROR(r->GetU64(&code_size));
  if (code_size > r->remaining()) {
    return Status::Corruption("motif code length out of range");
  }
  m->code.assign(static_cast<size_t>(code_size), 0);
  for (uint8_t& b : m->code) LAMO_RETURN_IF_ERROR(r->GetU8(&b));
  LAMO_RETURN_IF_ERROR(
      DecodeOccurrences(r, m->pattern.num_vertices(), &m->occurrences));
  uint64_t frequency = 0;
  LAMO_RETURN_IF_ERROR(r->GetU64(&frequency));
  m->frequency = static_cast<size_t>(frequency);
  LAMO_RETURN_IF_ERROR(r->GetDouble(&m->uniqueness));
  uint64_t num_sets = 0;
  LAMO_RETURN_IF_ERROR(r->GetU64(&num_sets));
  if (num_sets > SmallGraph::kMaxVertices) {
    return Status::Corruption("motif symmetric-set count out of range");
  }
  m->symmetric_sets_override.clear();
  for (uint64_t i = 0; i < num_sets; ++i) {
    uint64_t set_size = 0;
    LAMO_RETURN_IF_ERROR(r->GetU64(&set_size));
    if (set_size > SmallGraph::kMaxVertices) {
      return Status::Corruption("motif symmetric-set size out of range");
    }
    std::vector<uint32_t> set(static_cast<size_t>(set_size), 0);
    for (uint32_t& v : set) LAMO_RETURN_IF_ERROR(r->GetU32(&v));
    m->symmetric_sets_override.push_back(std::move(set));
  }
  return Status::OK();
}

}  // namespace lamo
