#include "motif/miner.h"

#include <algorithm>
#include <map>
#include <optional>

#include "graph/canonical.h"
#include "graph/graph_index.h"
#include "motif/canon_cache.h"
#include "motif/stage_checkpoint.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/fault.h"
#include "util/logging.h"

namespace lamo {
namespace {

/// Distinct vertex sets reached per level (each canonicalized once).
const size_t kObsCandidateSets = ObsCounterId("miner.candidate_sets");
/// Extensions dropped because the vertex set was already reached this level.
const size_t kObsDedupHits = ObsCounterId("miner.dedup_hits");
/// Frequent patterns harvested into the result across all levels.
const size_t kObsPatternsEmitted = ObsCounterId("miner.patterns_emitted");
/// Per-level latency: args = (level size being built, patterns entering).
const size_t kHistLevelUs = ObsHistogramId("miner.level_us");
const size_t kSpanLevel = ObsSpanId("miner.level");

/// Crash point, hit once per level before it is grown (fault.h).
const size_t kFpMinerLevel = FaultPointId("mine.level");

/// Stored parents grown per block: a constant, so block boundaries and the
/// merge order never depend on the thread count.
constexpr size_t kParentsPerBlock = 256;
/// Blocks grown per parallel wave before they merge. A wave's buffers (one
/// NewSet per new candidate of a pattern not yet capped) are the largest
/// transient of a level, so the wave is kept small.
constexpr size_t kBlocksPerWave = 16;

// In-progress pattern at one level.
struct PatternEntry {
  SmallGraph pattern;  // canonical form
  OccurrenceList occurrences;
};

using LevelMap = std::map<std::vector<uint8_t>, PatternEntry>;

/// Order-free hash of a vertex set: the sum of a mix of each id, so the
/// hash of S - {u} is the hash of S minus the mix of u.
uint64_t MixId(VertexId v) {
  uint64_t x = v + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The stored parents of one level in growth order (pattern code order,
/// then occurrence order), read in place from the level's occurrence lists:
/// parent g is the g-th occurrence across them. An open-addressed table
/// finds a parent by its vertex set in any vertex order; each slot holds g
/// and the high 32 bits of the set's hash, so a probe compares ids only on a
/// tag match.
class ParentTable {
 public:
  ParentTable(std::span<const Motif> level, size_t k) : k_(k) {
    for (const Motif& m : level) {
      starts_.push_back(size_);
      lists_.push_back(m.occurrences.ids());
      size_ += m.occurrences.size();
    }
    LAMO_CHECK_LT(size_, size_t{kEmpty});
    size_t capacity = 16;
    while (capacity < 2 * size_) capacity *= 2;
    mask_ = capacity - 1;
    slots_.assign(capacity, Slot{kEmpty, 0});
    uint32_t g = 0;
    for (const std::span<const VertexId> ids : lists_) {
      for (size_t at = 0; at < ids.size(); at += k_, ++g) {
        uint64_t hash = 0;
        for (size_t i = 0; i < k_; ++i) hash += MixId(ids[at + i]);
        size_t s = hash & mask_;
        while (slots_[s].g != kEmpty) s = (s + 1) & mask_;
        slots_[s] = Slot{g, static_cast<uint32_t>(hash >> 32)};
      }
    }
  }

  size_t k() const { return k_; }
  size_t size() const { return size_; }
  /// Parent g's vertices, aligned to its pattern.
  const VertexId* Aligned(size_t g) const {
    const size_t p =
        std::upper_bound(starts_.begin(), starts_.end(), g) - starts_.begin() -
        1;
    return lists_[p].data() + (g - starts_[p]) * k_;
  }
  /// Writes parent g's vertex set, sorted, to out[0..k).
  void Sorted(size_t g, VertexId* out) const {
    const VertexId* p = Aligned(g);
    std::copy(p, p + k_, out);
    std::sort(out, out + k_);
  }

  /// Index of the stored parent whose vertex set is the sorted set[0..k]
  /// without set[u], or size(); `hash` is that parent set's hash.
  size_t Find(uint64_t hash, const VertexId* set, size_t u) const {
    const uint32_t tag = static_cast<uint32_t>(hash >> 32);
    for (size_t s = hash & mask_;; s = (s + 1) & mask_) {
      const Slot slot = slots_[s];
      if (slot.g == kEmpty) return size_;
      if (slot.tag != tag) continue;
      const VertexId* p = Aligned(slot.g);
      if (std::all_of(p, p + k_, [&](VertexId v) {
            return v != set[u] && std::binary_search(set, set + k_ + 1, v);
          })) {
        return slot.g;
      }
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;
  struct Slot {
    uint32_t g;
    uint32_t tag;
  };

  size_t k_;
  size_t size_ = 0;
  size_t mask_ = 0;
  std::vector<size_t> starts_;  // first g of each pattern
  std::vector<std::span<const VertexId>> lists_;
  std::vector<Slot> slots_;
};

/// Writes the sorted sorted[0..k) plus w to set[0..k], sorted; returns
/// where w landed.
size_t InsertSorted(const VertexId* sorted, size_t k, VertexId w,
                    VertexId* set) {
  const size_t at = std::lower_bound(sorted, sorted + k, w) - sorted;
  std::copy(sorted, sorted + at, set);
  set[at] = w;
  std::copy(sorted + at, sorted + k, set + at + 1);
  return at;
}

/// A new candidate set, compact: parent g's vertex set plus w, in pattern
/// `canon`. Its aligned ids are rebuilt at merge (canonical vertex c is
/// played by the sorted set's canon->canonical_to_original[c]-th vertex).
struct NewSet {
  const CanonicalResult* canon;
  uint32_t parent;
  VertexId w;
};

/// One block's new candidate sets in serial reach order.
struct GrownBlock {
  std::vector<NewSet> sets;
  uint64_t reached = 0;  // extensions tried, duplicates included
  uint64_t fresh = 0;    // new sets, capped patterns' included
  // Owns the canonical forms of sizes past kMaxPatternVertices, which only
  // this miner reaches (levels grow up to SmallGraph::kMaxVertices).
  std::map<std::vector<uint8_t>, CanonicalResult> large_canon;
};

/// Grows parents [lo, hi). The candidate S = P + {w}, reached from parent g
/// at its vertex P[i], is new -- reached here first by the serial loop over
/// parents, vertices and neighbors -- iff (a) w is adjacent to no P[j] with
/// j < i, and (b) no S - {u}, u in P, is a stored parent with index < g:
/// every such parent reaches S too, and nothing else does. So deciding
/// newness needs only the stored parents, never a set of every candidate.
/// A new set whose pattern is in `capped` (sorted codes of the patterns
/// full at the cap when the wave began) is counted, not kept.
GrownBlock GrowBlock(const Graph& graph, const GraphIndex& index,
                     const ParentTable& parents, SharedCanonCache* cache,
                     const std::vector<std::vector<uint8_t>>& capped,
                     size_t lo, size_t hi) {
  const size_t k = parents.k();
  GrownBlock block;
  VertexId sorted[SmallGraph::kMaxVertices];
  VertexId set[SmallGraph::kMaxVertices];
  for (size_t g = lo; g < hi; ++g) {
    const VertexId* p = parents.Aligned(g);
    parents.Sorted(g, sorted);
    for (size_t i = 0; i < k; ++i) {
      for (const VertexId w : index.Neighbors(p[i])) {
        if (std::find(p, p + k, w) != p + k) continue;
        ++block.reached;
        bool seen = false;
        for (size_t j = 0; j < i && !seen; ++j) seen = index.HasEdge(p[j], w);
        if (seen) continue;
        const size_t at = InsertSorted(sorted, k, w, set);
        uint64_t hash = 0;
        for (size_t u = 0; u <= k; ++u) hash += MixId(set[u]);
        for (size_t u = 0; u <= k && !seen; ++u) {
          if (u == at) continue;
          seen = parents.Find(hash - MixId(set[u]), set, u) < g;
        }
        if (seen) continue;
        ++block.fresh;

        const CanonicalResult* canon = nullptr;
        if (cache != nullptr) {
          canon = &cache->Lookup(index.InducedBits(set, k + 1));
        } else {
          const SmallGraph induced = SmallGraph::InducedSubgraph(
              graph, std::vector<VertexId>(set, set + k + 1));
          auto [it, inserted] =
              block.large_canon.try_emplace(induced.AdjacencyCode());
          if (inserted) it->second = Canonicalize(induced);
          canon = &it->second;
        }
        if (!capped.empty() &&
            std::binary_search(capped.begin(), capped.end(), canon->code)) {
          continue;
        }
        block.sets.push_back(NewSet{canon, static_cast<uint32_t>(g), w});
      }
    }
  }
  return block;
}

uint64_t MinerFingerprint(const Graph& graph, const MinerConfig& config) {
  ByteWriter w;
  w.PutU64(config.min_size);
  w.PutU64(config.max_size);
  w.PutU64(config.min_frequency);
  w.PutU64(config.max_occurrences_per_pattern);
  w.PutU64(config.max_patterns_per_level);
  w.PutU64(GraphFingerprint(graph));
  return Fnv1a64(w.bytes());
}

/// Level-state payload: the size of the patterns in the current level, the
/// level itself, and everything harvested so far. The level is the last
/// `level_count` motifs of `held`; `held` is the harvest too when the level
/// is at or past min_size, and holds that level alone when it is not.
std::string EncodeLevelState(size_t level_size, const std::vector<Motif>& held,
                             size_t level_count, bool level_harvested) {
  ByteWriter w;
  w.PutU64(level_size);
  w.PutU64(level_count);
  for (const Motif& m : std::span<const Motif>(held).last(level_count)) {
    w.PutU8Vec(m.code);
    EncodeSmallGraph(m.pattern, &w);
    EncodeOccurrences(m.occurrences, &w);
  }
  w.PutU64(level_harvested ? held.size() : 0);
  if (level_harvested) {
    for (const Motif& m : held) EncodeMotif(m, &w);
  }
  return w.TakeBytes();
}

/// Inverse of EncodeLevelState. A harvested level is kept once: its entries
/// must match the tail of the decoded harvest, whose motifs become the level.
Status DecodeLevelState(std::string_view payload, size_t min_size,
                        size_t* level_size, size_t* level_count,
                        std::vector<Motif>* held) {
  ByteReader r(payload);
  *level_size = static_cast<size_t>(r.GetU64());
  *level_count = static_cast<size_t>(r.GetU64());
  const bool harvested = *level_size >= min_size;
  std::vector<std::pair<std::vector<uint8_t>, size_t>> level_keys;
  held->clear();
  for (size_t i = 0; i < *level_count && r.ok(); ++i) {
    Motif m;
    m.code = r.GetU8Vec("pattern code");
    DecodeSmallGraph(&r, &m.pattern);
    DecodeOccurrences(&r, m.pattern.num_vertices(), &m.occurrences);
    m.frequency = m.occurrences.size();
    if (harvested) {
      level_keys.emplace_back(std::move(m.code), m.frequency);
    } else {
      held->push_back(std::move(m));
    }
  }
  const uint64_t num_results = r.GetU64();
  if (r.ok() && !harvested && num_results != 0) {
    r.Fail("results before min_size in level state");
  }
  for (uint64_t i = 0; i < num_results && r.ok(); ++i) {
    DecodeMotif(&r, &held->emplace_back());
  }
  if (r.ok() && !r.AtEnd()) r.Fail("trailing bytes in level state");
  if (r.ok() && harvested) {
    bool tail = held->size() >= *level_count;
    for (size_t i = 0; i < level_keys.size() && tail; ++i) {
      const Motif& m = (*held)[held->size() - *level_count + i];
      tail = m.code == level_keys[i].first &&
             m.occurrences.size() == level_keys[i].second;
    }
    if (!tail) r.Fail("level is not the tail of the results");
  }
  return r.status();
}

}  // namespace

FrequentSubgraphMiner::FrequentSubgraphMiner(const Graph& graph,
                                             MinerConfig config)
    : graph_(graph), config_(config) {}

std::vector<Motif> FrequentSubgraphMiner::Mine() {
  LAMO_CHECK_GE(config_.min_size, 2u);
  LAMO_CHECK_GE(config_.max_size, config_.min_size);
  // Each level's occurrence lists are held once. `held` ends in the current
  // level (its last `level_count` motifs, of size `level_size`) and grows
  // the next level from it in place. Levels at or past min_size are the
  // result; a level below it is held alone, until the next one is grown.
  std::vector<Motif> held;
  size_t level_size = 2;
  size_t level_count = 0;

  // Each level is a deterministic function of the previous one, so the
  // held state after any completed level is a valid restart point; a
  // resumed run replays the remaining levels byte-identically.
  const StageCheckpointer ckpt(config_.checkpoint, "mine_levels",
                               MinerFingerprint(graph_, config_));
  bool restored = false;
  std::string payload;
  if (ckpt.TryLoad(&payload)) {
    const Status status = DecodeLevelState(payload, config_.min_size,
                                           &level_size, &level_count, &held);
    restored = status.ok() && level_size >= 2 &&
               level_size <= config_.max_size;
    if (!restored) {
      held.clear();
      level_size = 2;
      level_count = 0;
      ckpt.RecordDecodeFailure();
    }
  }
  ckpt.RecordChunks(config_.max_size - 2, level_size - 2);

  if (!restored) {
    // Level 2: the single-edge pattern with every edge as an occurrence.
    Motif edges;
    edges.pattern = SmallGraph(2);
    edges.pattern.AddEdge(0, 1);
    edges.code = edges.pattern.AdjacencyCode();
    edges.occurrences = OccurrenceList(2);
    for (const auto& [a, b] : graph_.Edges()) {
      edges.occurrences.push_back({a, b});
    }
    edges.frequency = edges.occurrences.size();
    if (edges.frequency >= config_.min_frequency) {
      held.push_back(std::move(edges));
      level_count = 1;
      if (config_.min_size <= 2) ObsIncrement(kObsPatternsEmitted);
    }
  }

  const GraphIndex index(graph_);
  const size_t cap = config_.max_occurrences_per_pattern;
  const size_t save_every = std::max<size_t>(1, config_.checkpoint.every);
  size_t completed_levels = 0;
  while (level_size < config_.max_size && level_count > 0) {
    const size_t size = level_size;
    // A level of SmallGraph::kMaxVertices vertices cannot grow; a larger
    // max_size is fine as long as frequency pruning empties a level first.
    LAMO_CHECK_LT(size, SmallGraph::kMaxVertices);
    FaultHit(kFpMinerLevel);
    const ScopedItemTimer level_timer(kSpanLevel, kHistLevelUs, size + 1,
                                      level_count, 2);
    LevelMap next;
    uint64_t reached = 0;
    uint64_t candidates = 0;
    {
      const ParentTable parents(
          std::span<const Motif>(held).last(level_count), size);
      std::optional<SharedCanonCache> cache;
      if (size + 1 <= kMaxPatternVertices) cache.emplace(size + 1);
      // Blocks grow in parallel a wave at a time and merge in block order,
      // which is the serial reach order; a wave bounds the candidate
      // buffers. `capped` changes only between waves.
      const size_t num_blocks =
          (parents.size() + kParentsPerBlock - 1) / kParentsPerBlock;
      std::vector<std::vector<uint8_t>> capped;
      for (size_t first = 0; first < num_blocks; first += kBlocksPerWave) {
        const std::vector<GrownBlock> blocks = ParallelMap(
            std::min(kBlocksPerWave, num_blocks - first), 1, [&](size_t b) {
              const size_t lo = (first + b) * kParentsPerBlock;
              return GrowBlock(graph_, index, parents,
                               cache.has_value() ? &*cache : nullptr, capped,
                               lo,
                               std::min(parents.size(), lo + kParentsPerBlock));
            });
        for (const GrownBlock& block : blocks) {
          reached += block.reached;
          candidates += block.fresh;
          for (const NewSet& fresh : block.sets) {
            const CanonicalResult& canon = *fresh.canon;
            auto [it, inserted] = next.try_emplace(canon.code);
            if (inserted) {
              it->second.pattern = canon.graph;
              it->second.occurrences = OccurrenceList(size + 1);
            }
            OccurrenceList& occurrences = it->second.occurrences;
            if (cap != 0 && occurrences.size() >= cap) {
              continue;  // frequency becomes a lower bound at the cap
            }
            VertexId sorted[SmallGraph::kMaxVertices];
            VertexId set[SmallGraph::kMaxVertices];
            parents.Sorted(fresh.parent, sorted);
            InsertSorted(sorted, size, fresh.w, set);
            const std::span<VertexId> occ =
                occurrences.push_back_uninitialized();
            for (size_t c = 0; c <= size; ++c) {
              occ[c] = set[canon.canonical_to_original[c]];
            }
            if (occurrences.size() == cap) {
              capped.insert(
                  std::lower_bound(capped.begin(), capped.end(), canon.code),
                  canon.code);
            }
          }
        }
      }
    }
    ObsAdd(kObsCandidateSets, candidates);
    ObsAdd(kObsDedupHits, reached - candidates);

    // Frequency pruning.
    for (auto it = next.begin(); it != next.end();) {
      if (it->second.occurrences.size() < config_.min_frequency) {
        it = next.erase(it);
      } else {
        ++it;
      }
    }
    // Optional beam. Ties in frequency keep canonical-code order.
    if (config_.max_patterns_per_level != 0 &&
        next.size() > config_.max_patterns_per_level) {
      std::vector<std::pair<size_t, std::vector<uint8_t>>> ranked;
      ranked.reserve(next.size());
      for (const auto& [c, e] : next) {
        ranked.emplace_back(e.occurrences.size(), c);
      }
      std::stable_sort(
          ranked.begin(), ranked.end(),
          [](const auto& a, const auto& b) { return a.first > b.first; });
      LevelMap pruned;
      for (size_t i = 0; i < config_.max_patterns_per_level; ++i) {
        auto node = next.extract(ranked[i].second);
        pruned.insert(std::move(node));
      }
      next = std::move(pruned);
    }

    // Harvest: the new level's lists move into `held`. A parent level below
    // min_size was held only to grow this one.
    if (size < config_.min_size) held.clear();
    for (auto& [code, entry] : next) {
      Motif motif;
      motif.pattern = std::move(entry.pattern);
      motif.code = code;
      motif.frequency = entry.occurrences.size();
      motif.occurrences = std::move(entry.occurrences);
      held.push_back(std::move(motif));
    }
    level_size = size + 1;
    level_count = next.size();
    const bool harvested = level_size >= config_.min_size;
    if (harvested) ObsAdd(kObsPatternsEmitted, level_count);
    if (ckpt.enabled() && ++completed_levels % save_every == 0) {
      ckpt.Save(EncodeLevelState(level_size, held, level_count, harvested));
    }
    LAMO_LOG(Debug) << "miner level " << level_size << ": " << level_count
                    << " frequent patterns";
  }
  if (level_size < config_.min_size) held.clear();
  return held;
}

}  // namespace lamo
