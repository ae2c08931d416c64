#ifndef LAMO_SERVE_UPDATE_H_
#define LAMO_SERVE_UPDATE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/lamofinder.h"
#include "graph/graph_index.h"
#include "motif/canon_cache.h"
#include "serve/snapshot.h"
#include "util/status.h"

namespace lamo {

/// What one applied edge mutation changed — the service uses this to tick
/// update.* counters and to invalidate exactly the affected response-cache
/// entries.
struct UpdateResult {
  bool add = true;
  VertexId u = 0;
  VertexId v = 0;
  /// Connected k-sets re-enumerated around the edge (all sizes).
  size_t resubgraphs = 0;
  /// Conforming occurrences appended to / erased from stored motifs.
  size_t occ_added = 0;
  size_t occ_removed = 0;
  /// Proteins whose MOTIFS/PREDICT answers can differ after the update:
  /// the endpoints, every protein of an added/removed occurrence, every
  /// protein siting a motif whose frequency or strength moved, and every
  /// protein whose site-index row changed. Sorted, deduplicated.
  std::vector<VertexId> affected;
  /// True when the GDS signature matrix changed (gds predictions are
  /// global — similarity ranks against every annotated protein — so any
  /// change invalidates all gds answers).
  bool signatures_changed = false;
  /// True when the role-vector matrix changed (role vectors are column-
  /// normalized, so one edge can perturb every row).
  bool roles_changed = false;
};

/// One candidate interaction scored by motif completion.
struct EdgeScore {
  /// Sum over labeled motifs of (conforming instances the edge would
  /// complete) x (motif strength) — Albert & Albert's motif-completion
  /// count, weighted by the paper's LMS.
  double score = 0.0;
  /// Total conforming instances the edge would complete.
  size_t completions = 0;
  /// (motif index, completions) for every motif with a nonzero count,
  /// ascending by motif index.
  std::vector<std::pair<uint32_t, size_t>> per_motif;
};

/// ---- Incremental snapshot maintenance -------------------------------------
///
/// Owns the dynamic-interactome math over a live Snapshot: applies one edge
/// mutation by re-enumerating only the connected k-sets containing both
/// endpoints (EnumeratePairSubgraphs) and diffing each set's induced pattern
/// with and without the edge through the SharedCanonCache. From the deltas
/// it patches, in place:
///
///   * motif occurrence lists (conforming occurrences only — each candidate
///     is conformance-checked against the motif's labeling scheme, exactly
///     the check `lamo label` ran at pack time; schemes themselves are
///     pinned at pack time and never relearned online);
///   * motif frequencies (counted globally, even on shards that do not
///     store the occurrence) and, through them, every LMS strength in the
///     affected size classes;
///   * the per-protein site index (rebuilt with BuildSnapshot's first-seen
///     dedup so an equal-state repack is byte-identical);
///   * the GDS signature matrix (per-set orbit count deltas, k = 2..5);
///   * the role-vector matrix (full recompute — column normalization makes
///     every row depend on every edge).
///
/// The engine and `lamo pack --apply-deltas` share this exact code path,
/// which is what makes a live-updated server byte-identical to one started
/// from a freshly repacked snapshot — the serving stack's core contract,
/// extended to updates.
///
/// Enumeration always runs on the engine's one GraphIndex of the current
/// graph: the pair seed treats {u, v} as an edge whether or not the index
/// holds it. Check and ScoreEdge are const and thread-safe against each
/// other (SharedCanonCache lookups and LaMoFinder conformance checks are);
/// Apply rewrites the snapshot and the index, so callers must keep every
/// other call out while it runs.
class UpdateEngine {
 public:
  /// `snapshot` must outlive the engine and not be modified externally
  /// while the engine lives (a snapshot swap requires a new engine).
  explicit UpdateEngine(Snapshot* snapshot);

  UpdateEngine(const UpdateEngine&) = delete;
  UpdateEngine& operator=(const UpdateEngine&) = delete;

  /// Validates a mutation without applying it: every motif of the snapshot
  /// within kMaxPatternVertices (Unimplemented otherwise), endpoints in
  /// range and distinct, edge absent (add) / present (delete).
  Status Check(bool add, VertexId u, VertexId v) const;

  /// Applies one mutation to the snapshot. On error the snapshot is
  /// unchanged (all validation happens before the first write).
  Status Apply(bool add, VertexId u, VertexId v, UpdateResult* result);

  /// Scores the candidate interaction {u, v} by motif completion. The edge
  /// must be absent and pass Check. A plain read: it enumerates the
  /// candidate's pair seed on the current index and changes nothing.
  Status ScoreEdge(VertexId u, VertexId v, EdgeScore* out) const;

 private:
  /// Motif sizes plus the graphlet sizes 2..5 when GDS is maintained.
  std::vector<size_t> UpdateSizes() const;
  /// Calls fn(motif index, conforming) for every labeled motif that the
  /// ascending vertex set `verts`, inducing the pattern `bits`, conforms
  /// to; `conforming` is the one occurrence re-aligned to the motif's
  /// labeling scheme.
  template <typename Fn>
  void ForEachConforming(const std::vector<VertexId>& verts, PatternKey bits,
                         Fn&& fn) const;

  Snapshot* snap_;
  /// CSR-only index of snap_->graph. A dense one would keep n²/8 bytes
  /// resident (2 MB at 4141 proteins) and refill them on every update, for
  /// walks that only touch the pair's neighborhood.
  GraphIndex index_;
  LaMoFinder finder_;
  /// size -> canonicalization cache, for every motif size up to
  /// kMaxPatternVertices.
  std::map<size_t, std::unique_ptr<SharedCanonCache>> caches_;
  /// size -> canonical code -> indices of labeled motifs with that pattern
  /// (several labeling schemes can share one pattern).
  std::map<size_t, std::map<std::string, std::vector<uint32_t>>>
      motifs_by_code_;
};

}  // namespace lamo

#endif  // LAMO_SERVE_UPDATE_H_
