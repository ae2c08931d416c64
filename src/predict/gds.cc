#include "predict/gds.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>

#include "graph/automorphism.h"
#include "graph/canonical.h"
#include "graph/graph_index.h"
#include "motif/canon_cache.h"
#include "motif/esu_engine.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/logging.h"

namespace lamo {
namespace {

/// Signature cells written (n x 73 per network), so lamo_report_check can
/// assert the count is a multiple of the orbit dimension.
const size_t kObsSignatureCells = ObsCounterId("gds.signature_cells");
/// Connected induced 2..5-vertex subgraphs tallied during orbit counting.
const size_t kObsSubgraphs = ObsCounterId("gds.subgraphs");
/// One vote = one annotated protein contributing its similarity-weighted
/// categories to a query's scores.
const size_t kObsVotes = ObsCounterId("predict.votes");
/// Per-chunk orbit-counting latency; span args = [lo, size of chunk].
const size_t kHistCountUs = ObsHistogramId("gds.count_us");
const size_t kSpanCount = ObsSpanId("gds.count");
/// Per-protein scoring latency; shared with the other backends.
const size_t kHistScoreUs = ObsHistogramId("predict.score_us");
const size_t kSpanScore = ObsSpanId("predict.score");

size_t PairCount(size_t k) { return k * (k - 1) / 2; }

}  // namespace

GdsOrbitTable::GdsOrbitTable() {
  // Enumerate every connected graph on 2..5 vertices, deduplicated by
  // canonical code.
  std::map<std::vector<uint8_t>, size_t> by_code;
  for (size_t k = 2; k <= 5; ++k) {
    const uint32_t masks = 1u << PairCount(k);
    for (uint32_t mask = 0; mask < masks; ++mask) {
      const SmallGraph g = SharedCanonCache::UnpackBits(mask, k);
      if (!g.IsConnected()) continue;
      CanonicalResult canon = Canonicalize(g);
      if (by_code.contains(canon.code)) continue;
      by_code.emplace(canon.code, graphlets_.size());
      graphlets_.push_back(
          {std::move(canon.graph), std::move(canon.code), {}});
    }
  }
  // Deterministic graphlet order: (size, edge count, canonical code).
  std::sort(graphlets_.begin(), graphlets_.end(),
            [](const Graphlet& a, const Graphlet& b) {
              if (a.canon.num_vertices() != b.canon.num_vertices()) {
                return a.canon.num_vertices() < b.canon.num_vertices();
              }
              if (a.canon.num_edges() != b.canon.num_edges()) {
                return a.canon.num_edges() < b.canon.num_edges();
              }
              return a.code < b.code;
            });
  by_code.clear();
  // Number the automorphism orbits sequentially across graphlets.
  size_t next_orbit = 0;
  for (size_t gi = 0; gi < graphlets_.size(); ++gi) {
    Graphlet& g = graphlets_[gi];
    by_code.emplace(g.code, gi);
    const std::vector<std::vector<uint32_t>> orbits = VertexOrbits(g.canon);
    g.orbit_of_vertex.assign(g.canon.num_vertices(), 0);
    for (const std::vector<uint32_t>& orbit : orbits) {
      for (uint32_t v : orbit) {
        g.orbit_of_vertex[v] = static_cast<uint8_t>(next_orbit);
      }
      ++next_orbit;
    }
  }
  LAMO_CHECK_EQ(graphlets_.size(), size_t{30})
      << "connected 2..5-vertex graphlet census";
  LAMO_CHECK_EQ(next_orbit, kGdsOrbits) << "graphlet orbit census";
  // Mask -> per-position orbit lookup, so the counting hot path never
  // canonicalizes: for every connected mask, map each original position
  // through the canonical labeling to its orbit id.
  for (size_t k = 2; k <= 5; ++k) {
    const uint32_t masks = 1u << PairCount(k);
    lookup_[k].assign(static_cast<size_t>(masks) * k, kUnusedSlot);
    for (uint32_t mask = 0; mask < masks; ++mask) {
      const SmallGraph g = SharedCanonCache::UnpackBits(mask, k);
      if (!g.IsConnected()) continue;
      const CanonicalResult canon = Canonicalize(g);
      const auto it = by_code.find(canon.code);
      LAMO_CHECK(it != by_code.end());
      const Graphlet& graphlet = graphlets_[it->second];
      for (uint32_t pos = 0; pos < k; ++pos) {
        lookup_[k][static_cast<size_t>(mask) * k +
                   canon.canonical_to_original[pos]] =
            graphlet.orbit_of_vertex[pos];
      }
    }
  }
}

const GdsOrbitTable& GdsOrbitTable::Get() {
  static const GdsOrbitTable* table = new GdsOrbitTable();
  return *table;
}

int GdsOrbitTable::OrbitOf(const SmallGraph& g, uint32_t v) const {
  if (g.num_vertices() < 2 || g.num_vertices() > 5 || !g.IsConnected()) {
    return -1;
  }
  const CanonicalResult canon = Canonicalize(g);
  for (const Graphlet& graphlet : graphlets_) {
    if (graphlet.code != canon.code) continue;
    for (uint32_t pos = 0; pos < g.num_vertices(); ++pos) {
      if (canon.canonical_to_original[pos] == v) {
        return graphlet.orbit_of_vertex[pos];
      }
    }
  }
  return -1;
}

std::vector<uint64_t> ComputeGdsSignatures(const Graph& ppi) {
  const size_t n = ppi.num_vertices();
  std::vector<uint64_t> signatures(n * kGdsOrbits, 0);
  if (n >= 2) {
    const GraphIndex index(ppi);
    const GdsOrbitTable& table = GdsOrbitTable::Get();
    // Orbit tallies are commutative integer adds, so relaxed atomics keep
    // the result exact and thread-count independent while letting chunks
    // touch overlapping subgraph members.
    std::vector<std::atomic<uint64_t>> cells(n * kGdsOrbits);
    std::atomic<uint64_t> total_subgraphs{0};
    const size_t grain = 16;
    ParallelForChunks(0, n, grain, [&](size_t chunk, size_t lo, size_t hi) {
      (void)chunk;
      const ScopedItemTimer timer(kSpanCount, kHistCountUs, lo, hi - lo, 2);
      uint64_t subgraphs = 0;
      // One ESU pass per graphlet size over the sets rooted in [lo, hi);
      // every member of each set tallies its orbit in that set's graphlet.
      for (size_t k = 2; k <= 5; ++k) {
        esu_internal::RunEsu(
            index, k, static_cast<VertexId>(lo), static_cast<VertexId>(hi),
            [&](const VertexId* set, size_t size) {
              const uint8_t* orbits = table.OrbitsOfMask(
                  size, static_cast<uint32_t>(index.InducedBits(set, size)));
              for (size_t i = 0; i < size; ++i) {
                cells[static_cast<size_t>(set[i]) * kGdsOrbits + orbits[i]]
                    .fetch_add(1, std::memory_order_relaxed);
              }
              ++subgraphs;
              return true;
            });
      }
      total_subgraphs.fetch_add(subgraphs, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < signatures.size(); ++i) {
      signatures[i] = cells[i].load(std::memory_order_relaxed);
    }
    ObsAdd(kObsSubgraphs, total_subgraphs.load(std::memory_order_relaxed));
  }
  ObsAdd(kObsSignatureCells, signatures.size());
  return signatures;
}

GdsPredictor::GdsPredictor(const PredictionContext& context)
    : GdsPredictor(context, ComputeGdsSignatures(*context.ppi)) {}

GdsPredictor::GdsPredictor(const PredictionContext& context,
                           std::vector<uint64_t> signatures)
    : context_(context), signatures_(std::move(signatures)) {
  LAMO_CHECK_EQ(signatures_.size(),
                context_.ppi->num_vertices() * kGdsOrbits)
      << "GDS signature matrix shape";
  priors_.reserve(context_.categories.size());
  for (TermId c : context_.categories) {
    priors_.push_back(context_.CategoryPrior(c));
  }
  for (ProteinId p = 0; p < context_.protein_categories.size(); ++p) {
    if (context_.IsAnnotated(p)) annotated_.push_back(p);
  }
}

double GdsPredictor::Similarity(ProteinId a, ProteinId b) const {
  const uint64_t* sa = signatures_.data() + static_cast<size_t>(a) * kGdsOrbits;
  const uint64_t* sb = signatures_.data() + static_cast<size_t>(b) * kGdsOrbits;
  double distance = 0.0;
  for (size_t o = 0; o < kGdsOrbits; ++o) {
    const double u = static_cast<double>(sa[o]);
    const double v = static_cast<double>(sb[o]);
    // Log scaling keeps the huge dense orbits (edges, wedges) from
    // swamping the rare ones; each term lies in [0, 1).
    distance += std::abs(std::log(u + 1.0) - std::log(v + 1.0)) /
                std::log(std::max(u, v) + 2.0);
  }
  return 1.0 - distance / static_cast<double>(kGdsOrbits);
}

std::vector<Prediction> GdsPredictor::Predict(ProteinId p) const {
  const ScopedItemTimer timer(kSpanScore, kHistScoreUs, p, 0, 1);
  std::vector<double> scores(context_.categories.size(), 0.0);
  // Every annotated protein votes for its categories, weighted by how
  // similar its graphlet degree signature is to the query's. Fixed
  // ascending electorate order keeps the float accumulation deterministic.
  for (const ProteinId q : annotated_) {
    if (q == p) continue;  // leave-one-out: the query never votes
    const double sim = Similarity(p, q);
    if (sim <= 0.0) continue;
    ObsIncrement(kObsVotes);
    for (size_t ci = 0; ci < context_.categories.size(); ++ci) {
      if (context_.HasCategory(q, context_.categories[ci])) {
        scores[ci] += sim;
      }
    }
  }
  return RankCategories(context_, scores, priors_);
}

}  // namespace lamo
