#include "motif/esu.h"

#include <algorithm>
#include <unordered_map>

#include "motif/esu_engine.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/logging.h"

namespace lamo {
namespace {

/// Connected size-k sets emitted by the class-counting pipelines.
const size_t kObsSubgraphs = ObsCounterId("esu.subgraphs");
/// Chunk-local pattern memo outcomes (the L1 in front of SharedCanonCache).
const size_t kObsCanonHits = ObsCounterId("esu.canon_cache_hits");
const size_t kObsCanonMisses = ObsCounterId("esu.canon_cache_misses");
/// Per-chunk latency histogram + trace span (args = root range): hub-rooted
/// chunks dominate the tail, and this is where that skew becomes visible.
const size_t kHistChunkUs = ObsHistogramId("esu.chunk_us");
const size_t kSpanChunk = ObsSpanId("esu.chunk");

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
  SharedCanonCache canon(k);
  return CountSubgraphClasses(g, k, canon);
}

std::map<std::vector<uint8_t>, size_t> CountSubgraphClasses(
    const Graph& g, size_t k, SharedCanonCache& canon) {
  using Counts = std::map<std::vector<uint8_t>, size_t>;
  LAMO_CHECK_EQ(canon.k(), k);
  const size_t n = g.num_vertices();
  const GraphIndex index(g);
  return ParallelReduce<Counts>(
      n, EsuRootGrain(n), Counts{},
      [&](size_t lo, size_t hi) {
        const ScopedItemTimer item(kSpanChunk, kHistChunkUs, lo, hi, 2);
        // Tally raw adjacency patterns (the chunk-local L1 — a hash probe
        // per emission, no allocation), then translate each distinct
        // pattern through the shared table once.
        std::unordered_map<PatternKey, size_t, PatternKeyHash> pattern_counts;
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
        // Sum-merge into the sorted code map: iteration order of the hash
        // map cannot affect the totals.
        Counts local;
        for (const auto& [bits, count] : pattern_counts) {
          local[canon.Lookup(bits).code] += count;
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
  const GraphIndex index(g);
  SharedCanonCache canon(k);
  const auto emit = [&](const VertexId* verts, size_t size) {
    const PatternKey bits = index.InducedBits(verts, size);
    result.estimated_counts[canon.Lookup(bits).code] += inverse;
    result.estimated_total += inverse;
    ++result.samples;
    return true;
  };
  esu_internal::Engine<decltype(emit), decltype(explore)> engine(
      index, k, emit, explore);
  engine.RunRoots(0, static_cast<VertexId>(g.num_vertices()));
  return result;
}

}  // namespace lamo
