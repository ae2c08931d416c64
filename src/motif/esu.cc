#include "motif/esu.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <unordered_map>

#include "graph/canonical.h"
#include "motif/esu_engine.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/logging.h"

namespace lamo {
namespace {

/// Connected size-k sets emitted by the class-counting pipelines.
const size_t kObsSubgraphs = ObsCounterId("esu.subgraphs");
/// Chunk-local canonical-form memo outcomes (the L1 in front of the shared
/// table; see CanonicalCodeCache below and SharedCanonCache).
const size_t kObsCanonHits = ObsCounterId("esu.canon_cache_hits");
const size_t kObsCanonMisses = ObsCounterId("esu.canon_cache_misses");
/// Root-range chunks processed and their summed wall time: per-chunk cost
/// distribution for the sharded enumeration.
const size_t kObsChunks = ObsCounterId("esu.chunks");
const size_t kObsChunkWallUs = ObsCounterId("esu.chunk_wall_us");
/// Per-chunk latency histogram + trace span: hub-rooted chunks dominate the
/// tail, and this is where that skew becomes visible.
const size_t kHistChunkUs = ObsHistogramId("esu.chunk_us");
const size_t kSpanChunk = ObsSpanId("esu.chunk");

/// Chunk-local memo from raw adjacency bytes of an induced subgraph to its
/// canonical code, for sizes past SharedCanonCache::kMaxK (whose patterns
/// no longer fit a 64-bit key). Chunk-local by design: no sharing, no
/// locks, and the result of CountSubgraphClasses is bit-identical with or
/// without it.
class CanonicalCodeCache {
 public:
  const std::vector<uint8_t>& CodeFor(const SmallGraph& sub) {
    const std::vector<uint8_t> key = sub.AdjacencyCode();
    auto it = memo_.find(key);
    if (it != memo_.end()) {
      ObsIncrement(kObsCanonHits);
      return it->second;
    }
    ObsIncrement(kObsCanonMisses);
    return memo_.emplace(key, CanonicalCode(sub)).first->second;
  }

 private:
  std::map<std::vector<uint8_t>, std::vector<uint8_t>> memo_;
};

/// Wall-clock accounting for one enumeration chunk: counters + latency
/// histogram when a sink is installed, a trace span (args = root range) when
/// a tracer is installed. One relaxed mask load when both are off.
class ScopedChunkClock {
 public:
  ScopedChunkClock(size_t lo, size_t hi)
      : mask_(ObsActiveMask()), lo_(lo), hi_(hi) {
    if (mask_ != 0) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedChunkClock() {
    if (mask_ == 0) return;
    const auto end = std::chrono::steady_clock::now();
    const uint64_t us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(end - start_)
            .count());
    if (mask_ & kObsSinkBit) {
      ObsIncrement(kObsChunks);
      ObsAdd(kObsChunkWallUs, us);
      ObsObserve(kHistChunkUs, us);
    }
    if (mask_ & kObsTraceBit) {
      TraceRecordSpan(kSpanChunk, start_, end, lo_, hi_, 2);
    }
  }

 private:
  uint8_t mask_;
  uint64_t lo_;
  uint64_t hi_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

void EnumerateConnectedSubgraphs(
    const Graph& g, size_t k,
    const std::function<bool(const std::vector<VertexId>&)>& callback) {
  const GraphIndex index(g);
  std::vector<VertexId> scratch;
  esu_internal::RunEsu(index, k, 0, static_cast<VertexId>(g.num_vertices()),
                       [&](const VertexId* set, size_t size) {
                         scratch.assign(set, set + size);
                         return callback(scratch);
                       });
}

size_t EsuRootGrain(size_t num_vertices) {
  // Many small chunks: per-root costs are heavily skewed (hub roots dominate)
  // and chunks are claimed dynamically, so fine grains balance the load. The
  // divisor keeps per-chunk overhead negligible even for tiny graphs.
  return std::max<size_t>(1, num_vertices / 256);
}

std::map<std::vector<uint8_t>, size_t> CountSubgraphClasses(const Graph& g,
                                                            size_t k) {
  return CountSubgraphClasses(g, k, nullptr);
}

std::map<std::vector<uint8_t>, size_t> CountSubgraphClasses(
    const Graph& g, size_t k, SharedCanonCache* shared_canon) {
  using Counts = std::map<std::vector<uint8_t>, size_t>;
  const size_t n = g.num_vertices();
  const GraphIndex index(g);
  // Sizes that fit the 64-bit pattern key resolve canonical codes through a
  // shared table — the caller's if provided (FindNetworkMotifsEsu shares one
  // across all uniqueness replicates), else one local to this call.
  std::optional<SharedCanonCache> own_canon;
  SharedCanonCache* canon = shared_canon;
  if (canon == nullptr && k <= SharedCanonCache::kMaxK) {
    own_canon.emplace(k);
    canon = &*own_canon;
  }
  if (canon != nullptr) LAMO_CHECK_EQ(canon->k(), k);

  return ParallelReduce<Counts>(
      n, EsuRootGrain(n), Counts{},
      [&](size_t lo, size_t hi) {
        const ScopedChunkClock clock(lo, hi);
        Counts local;
        if (canon != nullptr) {
          // Fast path: tally raw 64-bit adjacency patterns (the chunk-local
          // L1 — a hash probe per emission, no allocation), then translate
          // each distinct pattern through the shared table once.
          std::unordered_map<uint64_t, size_t> pattern_counts;
          esu_internal::RunEsu(
              index, k, static_cast<VertexId>(lo), static_cast<VertexId>(hi),
              [&](const VertexId* set, size_t size) {
                ObsIncrement(kObsSubgraphs);
                auto [it, inserted] =
                    pattern_counts.try_emplace(index.InducedBits(set, size), 1);
                if (inserted) {
                  ObsIncrement(kObsCanonMisses);
                } else {
                  ObsIncrement(kObsCanonHits);
                  ++it->second;
                }
                return true;
              });
          // Sum-merge into the sorted code map: iteration order of the
          // hash map cannot affect the totals.
          for (const auto& [bits, count] : pattern_counts) {
            local[canon->Lookup(bits).code] += count;
          }
        } else {
          CanonicalCodeCache chunk_canon;
          esu_internal::RunEsu(
              index, k, static_cast<VertexId>(lo), static_cast<VertexId>(hi),
              [&](const VertexId* set, size_t size) {
                ObsIncrement(kObsSubgraphs);
                const SmallGraph sub = SmallGraph::InducedSubgraph(
                    g, std::vector<VertexId>(set, set + size));
                ++local[chunk_canon.CodeFor(sub)];
                return true;
              });
        }
        return local;
      },
      [](Counts acc, Counts part) {
        for (auto& [code, count] : part) acc[code] += count;
        return acc;
      });
}

SampledSubgraphCounts SampleSubgraphClasses(
    const Graph& g, size_t k, const std::vector<double>& probabilities,
    Rng& rng) {
  LAMO_CHECK_EQ(probabilities.size(), k);
  double sample_probability = 1.0;
  for (double p : probabilities) sample_probability *= p;
  LAMO_CHECK_GT(sample_probability, 0.0);
  const double inverse = 1.0 / sample_probability;

  // RAND-ESU's per-depth coin flips, drawn once per root (depth 0) and once
  // per extension candidate; a certain branch (p >= 1) draws nothing.
  const auto explore = [&](size_t depth) {
    const double p = probabilities[depth];
    return p >= 1.0 || rng.Bernoulli(p);
  };
  SampledSubgraphCounts result;
  std::vector<VertexId> set;
  const auto emit = [&](const VertexId* verts, size_t size) {
    set.assign(verts, verts + size);
    const SmallGraph sub = SmallGraph::InducedSubgraph(g, set);
    result.estimated_counts[CanonicalCode(sub)] += inverse;
    result.estimated_total += inverse;
    ++result.samples;
    return true;
  };
  const GraphIndex index(g);
  esu_internal::Engine<decltype(emit), decltype(explore)> engine(
      index, k, emit, explore);
  engine.RunRoots(0, static_cast<VertexId>(g.num_vertices()));
  return result;
}

}  // namespace lamo
