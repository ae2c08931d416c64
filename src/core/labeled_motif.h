#ifndef LAMO_CORE_LABELED_MOTIF_H_
#define LAMO_CORE_LABELED_MOTIF_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/label_profile.h"
#include "graph/small_graph.h"
#include "motif/motif.h"

namespace lamo {

/// A labeled network motif g_labeled: a network motif together with a
/// labeling scheme (per-vertex GO label sets) and the occurrences of the
/// motif that conform to the scheme. The product of Task 3.
struct LabeledMotif {
  /// The unlabeled pattern in canonical form (shared with the source Motif).
  SmallGraph pattern;
  /// Canonical code of the pattern.
  std::vector<uint8_t> code;
  /// The labeling scheme: scheme[i] is the label set of canonical vertex i.
  /// An empty set renders as "unknown".
  LabelProfile scheme;
  /// Conforming occurrences, flat with k = size() (see OccurrenceList),
  /// each re-aligned so that its id i plays scheme position i under the
  /// symmetric-vertex pairing that makes the occurrence conform.
  OccurrenceList occurrences;
  /// |g_labeled|: the number of occurrences of the underlying motif that
  /// conform to the scheme (= occurrences.size()).
  size_t frequency = 0;
  /// s(g_labeled): inherited uniqueness of the underlying motif.
  double uniqueness = 0.0;
  /// LMS(g_labeled) per Eq. 4, normalized within its size class by
  /// ComputeMotifStrengths. 0 until computed.
  double strength = 0.0;

  /// Number of motif vertices.
  size_t size() const { return pattern.num_vertices(); }

  /// Renders the scheme, e.g. "[{G04}, {G08, G10}, {G04}, {G05}]".
  std::string SchemeToString(const Ontology& ontology) const;
};

/// One labeled-motif site a protein plays: `motifs[motif]`'s canonical
/// vertex `vertex`. LG_p of Eq. 5 is the list of p's sites.
struct MotifSite {
  uint32_t motif = 0;
  uint32_t vertex = 0;

  friend bool operator==(const MotifSite&, const MotifSite&) = default;
};

/// Per-protein site lists, indexed by protein id.
using MotifSiteIndex = std::vector<std::vector<MotifSite>>;

/// The one site-index builder (pack, live updates and the lms predictor all
/// use it): index[p] lists the sites p plays across every occurrence of
/// every motif, deduplicated, in first-seen order — motifs in order, then
/// occurrences, then positions. Every occurrence id must be below
/// `num_vertices`.
MotifSiteIndex BuildSiteIndex(const std::vector<LabeledMotif>& motifs,
                              size_t num_vertices);

/// Fills in LMS (Eq. 4) for every labeled motif:
///
///   LMS(g) = s(g) * |g| / max_k
///
/// where max_k is the maximal s*frequency among all labeled motifs of the
/// same size k, so strengths are comparable within a size class and the best
/// motif of each class has strength 1.
void ComputeMotifStrengths(std::vector<LabeledMotif>* motifs);

/// Binary codecs used by label-stage checkpoint payloads; same contract as
/// EncodeMotif/DecodeMotif.
void EncodeLabeledMotif(const LabeledMotif& m, ByteWriter* w);
Status DecodeLabeledMotif(ByteReader* r, LabeledMotif* m);

}  // namespace lamo

#endif  // LAMO_CORE_LABELED_MOTIF_H_
