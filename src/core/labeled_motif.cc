#include "core/labeled_motif.h"

#include <map>

namespace lamo {

std::string LabeledMotif::SchemeToString(const Ontology& ontology) const {
  std::string out = "[";
  for (size_t i = 0; i < scheme.size(); ++i) {
    if (i > 0) out += ", ";
    out += LabelSetToString(ontology, scheme[i]);
  }
  out += "]";
  return out;
}

void ComputeMotifStrengths(std::vector<LabeledMotif>* motifs) {
  std::map<size_t, double> max_per_size;
  for (const LabeledMotif& m : *motifs) {
    const double raw = m.uniqueness * static_cast<double>(m.frequency);
    auto [it, inserted] = max_per_size.emplace(m.size(), raw);
    if (!inserted && raw > it->second) it->second = raw;
  }
  for (LabeledMotif& m : *motifs) {
    const double max_k = max_per_size[m.size()];
    const double raw = m.uniqueness * static_cast<double>(m.frequency);
    m.strength = max_k > 0.0 ? raw / max_k : 0.0;
  }
}

void EncodeLabeledMotif(const LabeledMotif& m, ByteWriter* w) {
  EncodeSmallGraph(m.pattern, w);
  w->PutU64(m.code.size());
  for (const uint8_t b : m.code) w->PutU8(b);
  w->PutU64(m.scheme.size());
  for (const LabelSet& set : m.scheme) {
    w->PutU64(set.size());
    for (const TermId t : set) w->PutU32(t);
  }
  EncodeOccurrences(m.occurrences, w);
  w->PutU64(m.frequency);
  w->PutDouble(m.uniqueness);
  w->PutDouble(m.strength);
}

Status DecodeLabeledMotif(ByteReader* r, LabeledMotif* m) {
  LAMO_RETURN_IF_ERROR(DecodeSmallGraph(r, &m->pattern));
  uint64_t code_size = 0;
  LAMO_RETURN_IF_ERROR(r->GetU64(&code_size));
  if (code_size > r->remaining()) {
    return Status::Corruption("labeled motif code length out of range");
  }
  m->code.assign(static_cast<size_t>(code_size), 0);
  for (uint8_t& b : m->code) LAMO_RETURN_IF_ERROR(r->GetU8(&b));
  uint64_t scheme_size = 0;
  LAMO_RETURN_IF_ERROR(r->GetU64(&scheme_size));
  if (scheme_size > SmallGraph::kMaxVertices) {
    return Status::Corruption("labeled motif scheme size out of range");
  }
  m->scheme.assign(static_cast<size_t>(scheme_size), {});
  for (LabelSet& set : m->scheme) {
    uint64_t set_size = 0;
    LAMO_RETURN_IF_ERROR(r->GetU64(&set_size));
    if (set_size > r->remaining()) {
      return Status::Corruption("labeled motif label-set size out of range");
    }
    set.assign(static_cast<size_t>(set_size), 0);
    for (TermId& t : set) LAMO_RETURN_IF_ERROR(r->GetU32(&t));
  }
  LAMO_RETURN_IF_ERROR(
      DecodeOccurrences(r, m->pattern.num_vertices(), &m->occurrences));
  uint64_t frequency = 0;
  LAMO_RETURN_IF_ERROR(r->GetU64(&frequency));
  m->frequency = static_cast<size_t>(frequency);
  LAMO_RETURN_IF_ERROR(r->GetDouble(&m->uniqueness));
  LAMO_RETURN_IF_ERROR(r->GetDouble(&m->strength));
  return Status::OK();
}

}  // namespace lamo
