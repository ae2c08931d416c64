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

MotifSiteIndex BuildSiteIndex(const std::vector<LabeledMotif>& motifs,
                              size_t num_vertices) {
  MotifSiteIndex index(num_vertices);
  for (uint32_t mi = 0; mi < motifs.size(); ++mi) {
    for (const std::span<const VertexId> occ : motifs[mi].occurrences) {
      for (uint32_t pos = 0; pos < occ.size(); ++pos) {
        std::vector<MotifSite>& row = index[occ[pos]];
        // Motifs are visited in order, so a duplicate of (mi, pos) can only
        // sit in the row's tail of motif-mi sites.
        bool seen = false;
        for (auto it = row.rbegin(); it != row.rend() && it->motif == mi;
             ++it) {
          if (it->vertex == pos) {
            seen = true;
            break;
          }
        }
        if (!seen) row.push_back(MotifSite{mi, pos});
      }
    }
  }
  return index;
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
  w->PutU8Vec(m.code);
  w->PutU64(m.scheme.size());
  for (const LabelSet& set : m.scheme) w->PutU32Vec(set);
  EncodeOccurrences(m.occurrences, w);
  w->PutU64(m.frequency);
  w->PutDouble(m.uniqueness);
  w->PutDouble(m.strength);
}

Status DecodeLabeledMotif(ByteReader* r, LabeledMotif* m) {
  DecodeSmallGraph(r, &m->pattern);
  m->code = r->GetU8Vec("labeled motif code");
  const uint64_t scheme_size = r->GetU64();
  if (scheme_size > SmallGraph::kMaxVertices) {
    r->Fail("labeled motif scheme size out of range");
  }
  m->scheme.assign(r->ok() ? scheme_size : 0, {});
  for (LabelSet& set : m->scheme) set = r->GetU32Vec("labeled motif label set");
  DecodeOccurrences(r, m->pattern.num_vertices(), &m->occurrences);
  m->frequency = static_cast<size_t>(r->GetU64());
  m->uniqueness = r->GetDouble();
  m->strength = r->GetDouble();
  return r->status();
}

}  // namespace lamo
