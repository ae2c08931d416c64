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
  const uint32_t n = r->GetU32();
  if (n > SmallGraph::kMaxVertices) {
    r->Fail("SmallGraph vertex count out of range");
  }
  const uint32_t num_edges = r->GetU32();
  if (num_edges > r->remaining() / 2) {
    r->Fail("SmallGraph edge count out of range");
  }
  std::vector<std::pair<uint32_t, uint32_t>> edges(r->ok() ? num_edges : 0);
  for (auto& [a, b] : edges) {
    a = r->GetU8();
    b = r->GetU8();
  }
  if (!r->ok()) return r->status();
  StatusOr<SmallGraph> built = SmallGraph::FromEdges(n, edges);
  if (!built.ok()) {
    r->Fail("SmallGraph edges invalid: " + built.status().message());
    return r->status();
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
  // Each record is a u64 length and k u32 ids, so the count is bounded by
  // the bytes left; checking that up front lets the list be sized once.
  const size_t num_occurrences = r->GetCount(8 + 4 * k, "occurrence");
  if (k == 0 && num_occurrences != 0) {
    r->Fail("occurrence count out of range");
  }
  *out = OccurrenceList(k);
  out->reserve(r->ok() ? num_occurrences : 0);
  for (size_t i = 0; i < num_occurrences && r->ok(); ++i) {
    if (r->GetU64() != k) r->Fail("occurrence size does not match the pattern");
    for (VertexId& v : out->push_back_uninitialized()) v = r->GetU32();
  }
  return r->status();
}

void EncodeMotif(const Motif& m, ByteWriter* w) {
  EncodeSmallGraph(m.pattern, w);
  w->PutU8Vec(m.code);
  EncodeOccurrences(m.occurrences, w);
  w->PutU64(m.frequency);
  w->PutDouble(m.uniqueness);
  w->PutU64(m.symmetric_sets_override.size());
  for (const auto& set : m.symmetric_sets_override) w->PutU32Vec(set);
}

Status DecodeMotif(ByteReader* r, Motif* m) {
  DecodeSmallGraph(r, &m->pattern);
  m->code = r->GetU8Vec("motif code");
  DecodeOccurrences(r, m->pattern.num_vertices(), &m->occurrences);
  m->frequency = static_cast<size_t>(r->GetU64());
  m->uniqueness = r->GetDouble();
  const uint64_t num_sets = r->GetU64();
  if (num_sets > SmallGraph::kMaxVertices) {
    r->Fail("motif symmetric-set count out of range");
  }
  m->symmetric_sets_override.assign(r->ok() ? num_sets : 0, {});
  for (std::vector<uint32_t>& set : m->symmetric_sets_override) {
    set = r->GetU32Vec("motif symmetric set");
    if (set.size() > SmallGraph::kMaxVertices) {
      r->Fail("motif symmetric-set size out of range");
    }
  }
  return r->status();
}

}  // namespace lamo
