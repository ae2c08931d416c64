#include "serve/update.h"

#include <algorithm>
#include <set>

#include "motif/delta_esu.h"
#include "obs/obs.h"
#include "predict/gds.h"
#include "predict/role_similarity.h"

namespace lamo {
namespace {

// Same id as the miner's counter on purpose: re-enumerated delta sets are
// ESU subgraph visits, so serve-side reports satisfy
// update.resubgraphs <= esu.subgraphs without a parallel counter family.
const size_t kObsEsuSubgraphs = ObsCounterId("esu.subgraphs");

std::string CodeKey(const std::vector<uint8_t>& code) {
  return std::string(code.begin(), code.end());
}

// The occurrence aligned the way the mining pipeline aligns emissions:
// canonical position i holds the canonical_to_original[i]-th smallest
// vertex of the set. A one-occurrence list: the probe that
// ConformingOccurrences checks.
OccurrenceList AlignedOccurrence(const std::vector<VertexId>& verts,
                                 const CanonicalResult& canon) {
  OccurrenceList occ(verts.size());
  const std::span<VertexId> aligned = occ.push_back_uninitialized();
  for (size_t i = 0; i < verts.size(); ++i) {
    aligned[i] = verts[canon.canonical_to_original[i]];
  }
  return occ;
}

bool SameVertexSet(const std::vector<VertexId>& sorted_verts,
                   std::span<const VertexId> proteins) {
  if (sorted_verts.size() != proteins.size()) return false;
  VertexId sorted[SmallGraph::kMaxVertices];
  std::copy(proteins.begin(), proteins.end(), sorted);
  std::sort(sorted, sorted + proteins.size());
  return std::equal(sorted_verts.begin(), sorted_verts.end(), sorted);
}

}  // namespace

UpdateEngine::UpdateEngine(Snapshot* snapshot)
    : snap_(snapshot),
      index_(snapshot->graph, /*dense_vertex_limit=*/0),
      finder_(snapshot->ontology, snapshot->weights, snapshot->informative,
              snapshot->annotations) {
  for (uint32_t mi = 0; mi < snap_->motifs.size(); ++mi) {
    const LabeledMotif& m = snap_->motifs[mi];
    motifs_by_code_[m.size()][CodeKey(m.code)].push_back(mi);
  }
  // Larger motifs make Check refuse every update and score.
  for (const auto& [k, codes] : motifs_by_code_) {
    if (k <= kMaxPatternVertices) {
      caches_.emplace(k, std::make_unique<SharedCanonCache>(k));
    }
  }
}

template <typename Fn>
void UpdateEngine::ForEachConforming(const std::vector<VertexId>& verts,
                                     PatternKey bits, Fn&& fn) const {
  const auto by_code = motifs_by_code_.find(verts.size());
  if (by_code == motifs_by_code_.end()) return;
  const CanonicalResult& canon = caches_.at(verts.size())->Lookup(bits);
  const auto mis = by_code->second.find(CodeKey(canon.code));
  if (mis == by_code->second.end()) return;
  const OccurrenceList aligned = AlignedOccurrence(verts, canon);
  for (const uint32_t mi : mis->second) {
    const LabeledMotif& motif = snap_->motifs[mi];
    // Conformance is label-only, so the verdict is the one the labeling
    // stage reached at pack time.
    const Motif probe{motif.pattern, motif.code, aligned, 1, -1.0, {}};
    const OccurrenceList conf =
        finder_.ConformingOccurrences(probe, motif.scheme);
    if (!conf.empty()) fn(mi, conf);
  }
}

std::vector<size_t> UpdateEngine::UpdateSizes() const {
  std::set<size_t> sizes;
  for (const auto& [size, codes] : motifs_by_code_) sizes.insert(size);
  if (!snap_->gds_signatures.empty()) {
    for (size_t k = 2; k <= 5; ++k) sizes.insert(k);
  }
  std::vector<size_t> out;
  for (const size_t k : sizes) {
    if (k >= 2 && k <= index_.num_vertices()) out.push_back(k);
  }
  return out;
}

Status UpdateEngine::Check(bool add, VertexId u, VertexId v) const {
  const size_t largest =
      motifs_by_code_.empty() ? 0 : motifs_by_code_.rbegin()->first;
  if (largest > kMaxPatternVertices) {
    return Status::Unimplemented(
        "edge updates and scoring maintain motifs of up to " +
        std::to_string(kMaxPatternVertices) +
        " vertices; this snapshot holds a size-" + std::to_string(largest) +
        " motif");
  }
  const size_t n = index_.num_vertices();
  if (u >= n || v >= n) {
    return Status::InvalidArgument(
        "edge endpoint out of range: {" + std::to_string(u) + ", " +
        std::to_string(v) + "} on " + std::to_string(n) + " proteins");
  }
  if (u == v) {
    return Status::InvalidArgument("self-interaction {" + std::to_string(u) +
                                   ", " + std::to_string(u) + "} rejected");
  }
  if (add && index_.HasEdge(u, v)) {
    return Status::AlreadyExists("edge {" + std::to_string(u) + ", " +
                                 std::to_string(v) + "} already present");
  }
  if (!add && !index_.HasEdge(u, v)) {
    return Status::NotFound("edge {" + std::to_string(u) + ", " +
                            std::to_string(v) + "} does not exist");
  }
  return Status::OK();
}

Status UpdateEngine::Apply(bool add, VertexId u, VertexId v,
                           UpdateResult* result) {
  Status check = Check(add, u, v);
  if (!check.ok()) return check;
  *result = UpdateResult{};
  result->add = add;
  result->u = u;
  result->v = v;

  // Enumerate on the pre-mutation index, seeded with {u, v} as an edge
  // either way. One pass classifies both directions — every delta set's
  // pattern with the edge (bits_with) and without it (bits_without, valid
  // when still connected).
  const bool track_gds = !snap_->gds_signatures.empty();
  std::set<VertexId> affected = {u, v};
  std::map<uint32_t, int64_t> freq_delta;

  for (const size_t k : UpdateSizes()) {
    std::vector<PairSubgraph> subs;
    EnumeratePairSubgraphs(index_, u, v, k, &subs);
    result->resubgraphs += subs.size();
    ObsAdd(kObsEsuSubgraphs, subs.size());

    if (track_gds && k <= 5) {
      // Each delta set gains/loses its with-edge orbit contribution and
      // loses/gains its without-edge one — sets not containing both
      // endpoints keep their induced adjacency, so this patch is exact.
      const GdsOrbitTable& orbits = GdsOrbitTable::Get();
      const uint64_t sign = add ? uint64_t{1} : ~uint64_t{0};  // +1 / -1
      for (const PairSubgraph& ps : subs) {
        result->signatures_changed = true;
        const uint8_t* with =
            orbits.OrbitsOfMask(k, static_cast<uint32_t>(ps.bits_with));
        for (size_t i = 0; i < k; ++i) {
          snap_->gds_signatures[ps.verts[i] * kGdsOrbits + with[i]] += sign;
        }
        if (ps.connected_without) {
          const uint8_t* without =
              orbits.OrbitsOfMask(k, static_cast<uint32_t>(ps.bits_without));
          for (size_t i = 0; i < k; ++i) {
            snap_->gds_signatures[ps.verts[i] * kGdsOrbits + without[i]] -=
                sign;
          }
        }
      }
    }

    for (const PairSubgraph& ps : subs) {
      // Pattern transition of this vertex set. The edge changes the edge
      // count, so before != after always; a disconnected side has no
      // pattern. A conforming occurrence counts in the (global) frequency.
      if (!add || ps.connected_without) {
        ForEachConforming(ps.verts, add ? ps.bits_without : ps.bits_with,
                          [&](uint32_t mi, const OccurrenceList&) {
          --freq_delta[mi];
          // The stored list holds it only if this shard owns a member.
          LabeledMotif& motif = snap_->motifs[mi];
          for (size_t i = 0; i < motif.occurrences.size(); ++i) {
            if (SameVertexSet(ps.verts, motif.occurrences[i])) {
              for (const VertexId p : motif.occurrences[i]) {
                affected.insert(p);
              }
              motif.occurrences.erase(i);
              ++result->occ_removed;
              break;
            }
          }
        });
      }
      if (add || ps.connected_without) {
        bool owned = snap_->num_shards == 1;
        for (const VertexId p : ps.verts) {
          owned = owned || snap_->OwnsProtein(p);
        }
        ForEachConforming(ps.verts, add ? ps.bits_with : ps.bits_without,
                          [&](uint32_t mi, const OccurrenceList& conf) {
          ++freq_delta[mi];
          if (!owned) return;
          // conf[0] carries the scheme alignment LabelAll would have
          // stored — the repack byte-identity depends on it.
          snap_->motifs[mi].occurrences.push_back(conf[0]);
          for (const VertexId p : conf[0]) affected.insert(p);
          ++result->occ_added;
        });
      }
    }
  }

  // Change the graph once: toggle {u, v} and re-index.
  snap_->graph = ToggleEdge(snap_->graph, u, v);
  index_ = GraphIndex(snap_->graph, /*dense_vertex_limit=*/0);

  // Frequencies moved; recompute every LMS strength (normalization is per
  // size class, so one frequency change can shift a whole class). Any motif
  // whose frequency or strength moved changes the MOTIFS/PREDICT answers of
  // every protein siting it.
  std::vector<double> old_strengths(snap_->motifs.size());
  for (size_t mi = 0; mi < snap_->motifs.size(); ++mi) {
    old_strengths[mi] = snap_->motifs[mi].strength;
  }
  std::vector<bool> motif_changed(snap_->motifs.size(), false);
  for (const auto& [mi, delta] : freq_delta) {
    if (delta == 0) continue;
    motif_changed[mi] = true;
    const int64_t next = static_cast<int64_t>(snap_->motifs[mi].frequency) +
                         delta;
    snap_->motifs[mi].frequency = next < 0 ? 0 : static_cast<size_t>(next);
  }
  ComputeMotifStrengths(&snap_->motifs);
  for (size_t mi = 0; mi < snap_->motifs.size(); ++mi) {
    if (snap_->motifs[mi].strength != old_strengths[mi]) {
      motif_changed[mi] = true;
    }
  }

  // Rebuild the site index as BuildSnapshot does (shards keep owned rows
  // only), then fold every row that changed — and every row siting a
  // changed motif — into the affected set.
  MotifSiteIndex sites =
      BuildSiteIndex(snap_->motifs, snap_->graph.num_vertices());
  if (snap_->num_shards > 1) {
    for (uint32_t p = 0; p < sites.size(); ++p) {
      if (!snap_->OwnsProtein(p)) {
        sites[p].clear();
        sites[p].shrink_to_fit();
      }
    }
  }
  for (uint32_t p = 0; p < sites.size(); ++p) {
    const bool row_changed =
        p < snap_->sites.size() ? sites[p] != snap_->sites[p] : true;
    if (row_changed) {
      affected.insert(p);
      continue;
    }
    for (const SnapshotSite& site : sites[p]) {
      if (motif_changed[site.motif]) {
        affected.insert(p);
        break;
      }
    }
  }
  snap_->sites = std::move(sites);

  // Role vectors: the iteration column-normalizes over all proteins, so one
  // edge perturbs every row — recompute and report whether anything moved.
  if (!snap_->role_vectors.empty()) {
    std::vector<double> roles = ComputeRoleVectors(snap_->graph,
                                                   snap_->role_dim);
    result->roles_changed = roles != snap_->role_vectors;
    snap_->role_vectors = std::move(roles);
  }

  result->affected.assign(affected.begin(), affected.end());
  return Status::OK();
}

Status UpdateEngine::ScoreEdge(VertexId u, VertexId v,
                               EdgeScore* out) const {
  Status check = Check(/*add=*/true, u, v);
  if (!check.ok()) return check;
  *out = EdgeScore{};

  // The pair seed takes the absent candidate as its seed edge, so every
  // set is classified with the candidate in place. The edge changes each
  // delta set's edge count, so each conforming with-edge instance is
  // genuinely new — completed by this candidate.
  std::map<uint32_t, size_t> completions;
  for (const auto& [k, by_code] : motifs_by_code_) {
    if (k < 2 || k > index_.num_vertices()) continue;
    std::vector<PairSubgraph> subs;
    EnumeratePairSubgraphs(index_, u, v, k, &subs);
    ObsAdd(kObsEsuSubgraphs, subs.size());
    for (const PairSubgraph& ps : subs) {
      ForEachConforming(ps.verts, ps.bits_with,
                        [&](uint32_t mi, const OccurrenceList&) {
                          ++completions[mi];
                        });
    }
  }

  for (const auto& [mi, count] : completions) {
    out->completions += count;
    out->score += static_cast<double>(count) * snap_->motifs[mi].strength;
    out->per_motif.emplace_back(mi, count);
  }
  return Status::OK();
}

}  // namespace lamo
