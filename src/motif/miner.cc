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
/// Blocks grown per parallel wave before they merge. A wave's buffers (a
/// canonical-form pointer and k+1 ids per candidate) are the largest
/// transient of a level, so the wave is kept small.
constexpr size_t kBlocksPerWave = 16;

// In-progress pattern at one level.
struct PatternEntry {
  SmallGraph pattern;  // canonical form
  OccurrenceList occurrences;
};

using LevelMap = std::map<std::vector<uint8_t>, PatternEntry>;

/// The stored parent occurrences of one level in growth order (LevelMap code
/// order, then occurrence order), flat: parent g's aligned vertices, its
/// sorted vertex set, and an open-addressed table from sorted set to g.
class ParentIndex {
 public:
  ParentIndex(const LevelMap& level, size_t k) : k_(k) {
    size_t total = 0;
    for (const auto& [code, entry] : level) total += entry.occurrences.size();
    aligned_.reserve(total * k_);
    for (const auto& [code, entry] : level) {
      const std::span<const VertexId> ids = entry.occurrences.ids();
      aligned_.insert(aligned_.end(), ids.begin(), ids.end());
    }
    LAMO_CHECK_LT(size(), size_t{kEmpty});
    sorted_ = aligned_;
    size_t capacity = 16;
    while (capacity < 2 * size()) capacity *= 2;
    mask_ = capacity - 1;
    slots_.assign(capacity, kEmpty);
    for (uint32_t g = 0; g < size(); ++g) {
      VertexId* set = sorted_.data() + size_t{g} * k_;
      std::sort(set, set + k_);
      size_t s = Hash(set);
      while (slots_[s] != kEmpty) s = (s + 1) & mask_;
      slots_[s] = g;
    }
  }

  size_t k() const { return k_; }
  size_t size() const { return aligned_.size() / k_; }
  const VertexId* Aligned(size_t g) const { return &aligned_[g * k_]; }
  const VertexId* Sorted(size_t g) const { return &sorted_[g * k_]; }

  /// Index of the stored parent with sorted vertex set set[0..k), or size().
  size_t Find(const VertexId* set) const {
    for (size_t s = Hash(set);; s = (s + 1) & mask_) {
      if (slots_[s] == kEmpty) return size();
      if (std::equal(set, set + k_, Sorted(slots_[s]))) return slots_[s];
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  size_t Hash(const VertexId* set) const {
    uint64_t h = 0;
    for (size_t i = 0; i < k_; ++i) h = (h ^ set[i]) * 0x9e3779b97f4a7c15ULL;
    return static_cast<size_t>(h ^ (h >> 29)) & mask_;
  }

  size_t k_;
  size_t mask_ = 0;
  std::vector<VertexId> aligned_;
  std::vector<VertexId> sorted_;
  std::vector<uint32_t> slots_;
};

/// One block's new candidate sets in serial reach order, flat: the
/// canonical form and the k+1 aligned vertices (canonical vertex c is played
/// by aligned[c]) of each.
struct GrownBlock {
  std::vector<const CanonicalResult*> canon;
  std::vector<VertexId> aligned;
  uint64_t reached = 0;  // extensions tried, duplicates included
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
GrownBlock GrowBlock(const Graph& graph, const GraphIndex& index,
                     const ParentIndex& parents, SharedCanonCache* cache,
                     size_t lo, size_t hi) {
  const size_t k = parents.k();
  GrownBlock block;
  VertexId set[SmallGraph::kMaxVertices];
  VertexId sub[SmallGraph::kMaxVertices];
  for (size_t g = lo; g < hi; ++g) {
    const VertexId* p = parents.Aligned(g);
    const VertexId* sorted = parents.Sorted(g);
    for (size_t i = 0; i < k; ++i) {
      for (const VertexId w : index.Neighbors(p[i])) {
        if (std::find(p, p + k, w) != p + k) continue;
        ++block.reached;
        bool seen = false;
        for (size_t j = 0; j < i && !seen; ++j) seen = index.HasEdge(p[j], w);
        if (seen) continue;
        const size_t at = std::lower_bound(sorted, sorted + k, w) - sorted;
        std::copy(sorted, sorted + at, set);
        set[at] = w;
        std::copy(sorted + at, sorted + k, set + at + 1);
        for (size_t u = 0; u <= k && !seen; ++u) {
          if (u == at) continue;
          std::copy(set, set + u, sub);
          std::copy(set + u + 1, set + k + 1, sub + u);
          seen = parents.Find(sub) < g;
        }
        if (seen) continue;

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
        block.canon.push_back(canon);
        for (size_t c = 0; c <= k; ++c) {
          block.aligned.push_back(set[canon->canonical_to_original[c]]);
        }
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

/// Level-state payload: the size of the patterns currently in `level`, the
/// level itself, and everything harvested so far. When `level_in_results`,
/// the level's occurrences were moved into the last level.size() results.
std::string EncodeLevelState(size_t level_size, const LevelMap& level,
                             const std::vector<Motif>& results,
                             bool level_in_results) {
  ByteWriter w;
  w.PutU64(level_size);
  w.PutU64(level.size());
  size_t moved = results.size() - level.size();
  for (const auto& [code, entry] : level) {
    const OccurrenceList& occurrences =
        level_in_results ? results[moved++].occurrences : entry.occurrences;
    w.PutU8Vec(code);
    EncodeSmallGraph(entry.pattern, &w);
    EncodeOccurrences(occurrences, &w);
  }
  w.PutU64(results.size());
  for (const Motif& m : results) EncodeMotif(m, &w);
  return w.TakeBytes();
}

Status DecodeLevelState(std::string_view payload, size_t* level_size,
                        LevelMap* level, std::vector<Motif>* results) {
  ByteReader r(payload);
  *level_size = static_cast<size_t>(r.GetU64());
  const uint64_t num_patterns = r.GetU64();
  level->clear();
  for (uint64_t i = 0; i < num_patterns && r.ok(); ++i) {
    std::vector<uint8_t> code = r.GetU8Vec("pattern code");
    PatternEntry entry;
    DecodeSmallGraph(&r, &entry.pattern);
    DecodeOccurrences(&r, entry.pattern.num_vertices(), &entry.occurrences);
    level->emplace(std::move(code), std::move(entry));
  }
  const uint64_t num_results = r.GetU64();
  results->clear();
  for (uint64_t i = 0; i < num_results && r.ok(); ++i) {
    DecodeMotif(&r, &results->emplace_back());
  }
  if (r.ok() && !r.AtEnd()) r.Fail("trailing bytes in level state");
  return r.status();
}

}  // namespace

FrequentSubgraphMiner::FrequentSubgraphMiner(const Graph& graph,
                                             MinerConfig config)
    : graph_(graph), config_(config) {}

std::vector<Motif> FrequentSubgraphMiner::Mine() {
  LAMO_CHECK_GE(config_.min_size, 2u);
  LAMO_CHECK_GE(config_.max_size, config_.min_size);
  std::vector<Motif> results;

  // Each level is a deterministic function of the previous one, so the
  // (level, results) pair after any completed level is a valid restart
  // point; a resumed run replays the remaining levels byte-identically.
  const StageCheckpointer ckpt(config_.checkpoint, "mine_levels",
                               MinerFingerprint(graph_, config_));
  LevelMap level;
  size_t start_size = 2;
  bool restored = false;
  std::string payload;
  if (ckpt.TryLoad(&payload)) {
    size_t level_size = 0;
    LevelMap restored_level;
    std::vector<Motif> restored_results;
    const Status status = DecodeLevelState(payload, &level_size,
                                           &restored_level, &restored_results);
    if (status.ok() && level_size >= 2 && level_size <= config_.max_size) {
      level = std::move(restored_level);
      results = std::move(restored_results);
      start_size = level_size;
      restored = true;
    } else {
      ckpt.RecordDecodeFailure();
    }
  }
  ckpt.RecordChunks(config_.max_size - 2, start_size - 2);

  // Appends a level's patterns to the results. The last level's
  // occurrences are moved, not copied: nothing grows from them. Returns
  // whether they were moved.
  auto harvest = [&](LevelMap& lvl, size_t size, bool last) {
    if (size < config_.min_size) return false;
    for (auto& [code, entry] : lvl) {
      Motif motif;
      motif.pattern = entry.pattern;
      motif.code = code;
      motif.frequency = entry.occurrences.size();
      if (last) {
        motif.occurrences = std::move(entry.occurrences);
      } else {
        motif.occurrences = entry.occurrences;
      }
      results.push_back(std::move(motif));
      ObsIncrement(kObsPatternsEmitted);
    }
    return last;
  };

  if (!restored) {
    // Level 2: the single-edge pattern with every edge as an occurrence.
    SmallGraph edge_pattern(2);
    edge_pattern.AddEdge(0, 1);
    PatternEntry entry;
    entry.pattern = edge_pattern;
    entry.occurrences = OccurrenceList(2);
    for (const auto& [a, b] : graph_.Edges()) {
      entry.occurrences.push_back({a, b});
    }
    if (entry.occurrences.size() >= config_.min_frequency) {
      level.emplace(edge_pattern.AdjacencyCode(), std::move(entry));
    }
    harvest(level, 2, false);
  }

  const GraphIndex index(graph_);
  const size_t cap = config_.max_occurrences_per_pattern;
  const size_t save_every = std::max<size_t>(1, config_.checkpoint.every);
  size_t completed_levels = 0;
  for (size_t size = start_size; size < config_.max_size && !level.empty();
       ++size) {
    // A level of SmallGraph::kMaxVertices vertices cannot grow; a larger
    // max_size is fine as long as frequency pruning empties a level first.
    LAMO_CHECK_LT(size, SmallGraph::kMaxVertices);
    FaultHit(kFpMinerLevel);
    const ScopedItemTimer level_timer(kSpanLevel, kHistLevelUs, size + 1,
                                      level.size(), 2);
    // The parents live on flat in the index; the level map is not needed
    // again (its patterns were harvested when it was built).
    const ParentIndex parents(level, size);
    level.clear();
    std::optional<SharedCanonCache> cache;
    if (size + 1 <= kMaxPatternVertices) cache.emplace(size + 1);
    // Blocks grow in parallel a wave at a time and merge in block order,
    // which is the serial reach order; a wave bounds the candidate buffers.
    const size_t num_blocks =
        (parents.size() + kParentsPerBlock - 1) / kParentsPerBlock;
    LevelMap next;
    uint64_t reached = 0;
    uint64_t candidates = 0;
    for (size_t first = 0; first < num_blocks; first += kBlocksPerWave) {
      const std::vector<GrownBlock> blocks = ParallelMap(
          std::min(kBlocksPerWave, num_blocks - first), 1, [&](size_t b) {
            const size_t lo = (first + b) * kParentsPerBlock;
            return GrowBlock(graph_, index, parents,
                             cache.has_value() ? &*cache : nullptr, lo,
                             std::min(parents.size(), lo + kParentsPerBlock));
          });
      for (const GrownBlock& block : blocks) {
        reached += block.reached;
        candidates += block.canon.size();
        for (size_t c = 0; c < block.canon.size(); ++c) {
          const CanonicalResult& canon = *block.canon[c];
          auto [it, inserted] = next.try_emplace(canon.code);
          if (inserted) {
            it->second.pattern = canon.graph;
            it->second.occurrences = OccurrenceList(size + 1);
          }
          OccurrenceList& occurrences = it->second.occurrences;
          if (cap != 0 && occurrences.size() >= cap) {
            continue;  // frequency becomes a lower bound at the cap
          }
          occurrences.push_back(std::span<const VertexId>(
              &block.aligned[c * (size + 1)], size + 1));
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

    const bool moved = harvest(next, size + 1, size + 1 == config_.max_size);
    level = std::move(next);
    if (ckpt.enabled() && ++completed_levels % save_every == 0) {
      ckpt.Save(EncodeLevelState(size + 1, level, results, moved));
    }
    LAMO_LOG(Debug) << "miner level " << (size + 1) << ": " << level.size()
                    << " frequent patterns";
  }
  return results;
}

}  // namespace lamo
