#ifndef LAMO_MOTIF_MOTIF_H_
#define LAMO_MOTIF_MOTIF_H_

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "graph/small_graph.h"
#include "util/bytes.h"
#include "util/logging.h"
#include "util/status.h"

namespace lamo {

/// A motif's occurrence set D_g, stored flat: size() occurrences of k()
/// vertex ids each, back to back in one contiguous array (a k-stride
/// layout, 4 bytes per id and no per-occurrence allocation). Occurrence i is
/// an embedding aligned to the motif's canonical vertex order: (*this)[i][c]
/// is the graph vertex (protein) playing canonical motif vertex c. The
/// underlying vertex *set* identifies the occurrence; the particular
/// alignment is one representative of the automorphism class (LaMoFinder
/// explores the alternatives via the motif's symmetric vertex sets).
///
/// k is fixed at construction (a default-constructed list has k = 0 and
/// accepts no occurrence); appending a span of any other length is a
/// LAMO_CHECK failure. Spans handed out stay valid until the next append,
/// erase, reserve or shrink.
class OccurrenceList {
 public:
  /// Iterates occurrences as std::span<const VertexId> of length k.
  class const_iterator {
   public:
    using value_type = std::span<const VertexId>;
    using difference_type = std::ptrdiff_t;

    const_iterator(const VertexId* at, size_t k) : at_(at), k_(k) {}
    value_type operator*() const { return {at_, k_}; }
    const_iterator& operator++() {
      at_ += k_;
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return at_ == other.at_;
    }

   private:
    const VertexId* at_ = nullptr;
    size_t k_ = 0;
  };

  OccurrenceList() = default;
  explicit OccurrenceList(size_t k) : k_(k) {}
  /// Takes `ids` as its flat storage: ids.size() / k occurrences of k ids.
  OccurrenceList(size_t k, std::vector<VertexId> ids)
      : k_(k), ids_(std::move(ids)) {
    LAMO_CHECK(k_ == 0 ? ids_.empty() : ids_.size() % k_ == 0)
        << " " << ids_.size() << " ids do not split into k=" << k_;
  }

  /// Vertices per occurrence (the pattern size).
  size_t k() const { return k_; }
  /// Number of occurrences.
  size_t size() const { return k_ == 0 ? 0 : ids_.size() / k_; }
  bool empty() const { return ids_.empty(); }

  std::span<const VertexId> operator[](size_t i) const {
    return {ids_.data() + i * k_, k_};
  }
  const_iterator begin() const { return {ids_.data(), k_}; }
  const_iterator end() const { return {ids_.data() + ids_.size(), k_}; }
  /// All size() * k() ids, occurrence after occurrence.
  std::span<const VertexId> ids() const { return ids_; }

  /// Appends one occurrence; `occ` must hold exactly k() ids and must not
  /// point into this list.
  void push_back(std::span<const VertexId> occ) {
    LAMO_CHECK(k_ > 0 && occ.size() == k_)
        << " appended " << occ.size() << " ids to a k=" << k_ << " list";
    ids_.insert(ids_.end(), occ.begin(), occ.end());
  }
  void push_back(std::initializer_list<VertexId> occ) {
    push_back(std::span<const VertexId>(occ.begin(), occ.size()));
  }
  /// Appends one occurrence and returns its k() ids for the caller to fill.
  std::span<VertexId> push_back_uninitialized() {
    LAMO_CHECK_GT(k_, 0u);
    ids_.resize(ids_.size() + k_);
    return {ids_.data() + ids_.size() - k_, k_};
  }
  /// Appends every occurrence of `other` (same k, or empty), in order.
  void append(const OccurrenceList& other) {
    if (other.empty()) return;
    LAMO_CHECK_EQ(other.k_, k_);
    ids_.insert(ids_.end(), other.ids_.begin(), other.ids_.end());
  }
  /// Removes occurrence i, keeping the others in order.
  void erase(size_t i) {
    LAMO_CHECK_LT(i, size());
    const auto first = ids_.begin() + static_cast<std::ptrdiff_t>(i * k_);
    ids_.erase(first, first + static_cast<std::ptrdiff_t>(k_));
  }
  void reserve(size_t n) { ids_.reserve(n * k_); }
  void shrink_to_fit() { ids_.shrink_to_fit(); }

  bool operator==(const OccurrenceList& other) const = default;

 private:
  size_t k_ = 0;
  std::vector<VertexId> ids_;
};

/// A network motif: a connected subgraph pattern (in canonical form) that is
/// repeated in the network (frequency >= threshold) and unique (appears at a
/// higher frequency than in randomized networks). This is the paper's g with
/// its occurrence set D_g.
struct Motif {
  /// Canonical representative of the isomorphism class.
  SmallGraph pattern;
  /// Canonical code of `pattern` (hashable identity of the class).
  std::vector<uint8_t> code;
  /// D_g: distinct vertex sets inducing the pattern, one aligned embedding
  /// each, built as OccurrenceList(pattern.num_vertices()).
  OccurrenceList occurrences;
  /// Frequency |D_g| at mining time. Kept separately because occurrence
  /// lists may be capped for memory control, in which case frequency records
  /// the true (or lower-bounded) count.
  size_t frequency = 0;
  /// Uniqueness s(g): fraction of randomized networks in which g's frequency
  /// in the real network is >= its frequency in the randomized network
  /// [Milo et al.]. Filled by UniquenessTest; -1 if not evaluated.
  double uniqueness = -1.0;
  /// When non-empty, overrides the symmetric vertex sets derived from
  /// `pattern` (twin classes). Directed motifs use this: their occurrences
  /// are aligned to a *directed* canonical order whose symmetries the
  /// undirected pattern over-approximates, so the directed twin classes are
  /// attached here and the labeling stage honors them.
  std::vector<std::vector<uint32_t>> symmetric_sets_override;

  /// Number of vertices in the pattern.
  size_t size() const { return pattern.num_vertices(); }

  /// One-line summary for logs.
  std::string ToString() const;
};

/// Binary codecs used by checkpoint payloads (util/bytes.h primitives).
/// Encode(Decode(x)) is the identity. Decode rejects malformed input by
/// latching a Corruption in `r` and returns r->status(), so a caller decoding
/// several records in a row may check the reader once at the end.
void EncodeSmallGraph(const SmallGraph& g, ByteWriter* w);
Status DecodeSmallGraph(ByteReader* r, SmallGraph* g);
/// An occurrence list: u64 count, then per occurrence a u64 length (always
/// k) and its k u32 ids. Decode rejects any length other than `k`.
void EncodeOccurrences(const OccurrenceList& occurrences, ByteWriter* w);
Status DecodeOccurrences(ByteReader* r, size_t k, OccurrenceList* out);
void EncodeMotif(const Motif& m, ByteWriter* w);
Status DecodeMotif(ByteReader* r, Motif* m);

}  // namespace lamo

#endif  // LAMO_MOTIF_MOTIF_H_
