#include "motif/delta_esu.h"

#include <algorithm>
#include <cassert>

#include "motif/esu_engine.h"
#include "util/logging.h"

namespace lamo {

size_t PairBitIndex(size_t i, size_t j, size_t k) {
  assert(i < j && j < k);
  // Pairs (i, j), i < j, in lexicographic order: rows 0..i-1 contribute
  // (k-1) + (k-2) + ... + (k-i) = i*(2k-i-1)/2 bits before row i starts.
  return i * (2 * k - i - 1) / 2 + (j - i - 1);
}

bool MaskConnected(PatternKey bits, size_t k) {
  if (k <= 1) return true;
  uint32_t visited = 1u;  // vertex 0
  uint32_t frontier = 1u;
  const uint32_t all = (k >= 32) ? ~0u : ((1u << k) - 1);
  while (frontier != 0) {
    uint32_t next = 0;
    for (size_t i = 0; i < k; ++i) {
      if ((frontier & (1u << i)) == 0) continue;
      for (size_t j = 0; j < k; ++j) {
        if (j == i || (visited & (1u << j)) != 0) continue;
        const size_t bit =
            i < j ? PairBitIndex(i, j, k) : PairBitIndex(j, i, k);
        if ((bits >> bit) & 1) next |= 1u << j;
      }
    }
    visited |= next;
    frontier = next;
    if (visited == all) return true;
  }
  return visited == all;
}

void EnumeratePairSubgraphs(const GraphIndex& index, VertexId u, VertexId v,
                            size_t k, std::vector<PairSubgraph>* out) {
  out->clear();
  LAMO_CHECK_LE(k, kMaxPatternVertices);
  const VertexId lo = std::min(u, v);
  const VertexId hi = std::max(u, v);
  const auto emit = [&](const VertexId* set, size_t size) {
    PairSubgraph ps;
    ps.verts.assign(set, set + size);
    // Position of the anchor pair within the ascending set; its bit is set
    // whether or not the index holds the edge.
    const size_t pu =
        static_cast<size_t>(std::lower_bound(set, set + size, lo) - set);
    const size_t pv =
        static_cast<size_t>(std::lower_bound(set, set + size, hi) - set);
    const PatternKey anchor = PatternKey{1} << PairBitIndex(pu, pv, k);
    ps.bits_with = index.InducedBits(set, size) | anchor;
    ps.bits_without = ps.bits_with & ~anchor;
    ps.connected_without = k > 2 && MaskConnected(ps.bits_without, k);
    out->push_back(std::move(ps));
    return true;
  };
  esu_internal::Engine<decltype(emit)> engine(index, k, emit);
  engine.RunPair(u, v);
}

}  // namespace lamo
