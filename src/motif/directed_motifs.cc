#include "motif/directed_motifs.h"

#include <algorithm>
#include <set>

#include "motif/esu.h"
#include "util/logging.h"

namespace lamo {

DiGraph ArcSwapRewire(const DiGraph& g, double swaps_per_arc, Rng& rng) {
  auto arcs = g.Arcs();
  const size_t m = arcs.size();
  if (m < 2) return g;
  std::set<std::pair<VertexId, VertexId>> arc_set(arcs.begin(), arcs.end());

  const size_t target_swaps =
      static_cast<size_t>(swaps_per_arc * static_cast<double>(m));
  size_t done = 0;
  size_t attempts = 0;
  const size_t max_attempts = target_swaps * 50 + 100;
  while (done < target_swaps && attempts < max_attempts) {
    ++attempts;
    const size_t i = static_cast<size_t>(rng.Uniform(m));
    const size_t j = static_cast<size_t>(rng.Uniform(m));
    if (i == j) continue;
    const auto [a, b] = arcs[i];
    const auto [c, d] = arcs[j];
    // Proposed: a->d and c->b (out-degrees of a,c and in-degrees of b,d are
    // all preserved).
    if (a == d || c == b) continue;
    if (arc_set.count({a, d}) != 0 || arc_set.count({c, b}) != 0) continue;
    arc_set.erase({a, b});
    arc_set.erase({c, d});
    arc_set.insert({a, d});
    arc_set.insert({c, b});
    arcs[i] = {a, d};
    arcs[j] = {c, b};
    ++done;
  }
  DiGraphBuilder builder(g.num_vertices());
  for (const auto& [a, b] : arc_set) {
    LAMO_CHECK(builder.AddArc(a, b).ok());
  }
  return builder.Build();
}

std::map<std::vector<uint8_t>, size_t> CountDirectedSubgraphClasses(
    const DiGraph& g, size_t k) {
  std::map<std::vector<uint8_t>, size_t> counts;
  const Graph underlying = g.Underlying();
  EnumerateConnectedSubgraphs(
      underlying, k, [&](const std::vector<VertexId>& set) {
        const SmallDigraph sub = SmallDigraph::InducedSubgraph(g, set);
        ++counts[DirectedCanonicalCode(sub)];
        return true;
      });
  return counts;
}

std::vector<DirectedMotif> FindDirectedNetworkMotifs(
    const DiGraph& g, const DirectedMotifConfig& config) {
  // Pass 1: enumerate once, collecting per-class counts, one canonical
  // representative and the aligned occurrence lists.
  struct ClassEntry {
    SmallDigraph pattern{0};
    OccurrenceList occurrences;
  };
  std::map<std::vector<uint8_t>, ClassEntry> classes;
  const Graph underlying = g.Underlying();
  EnumerateConnectedSubgraphs(
      underlying, config.size, [&](const std::vector<VertexId>& set) {
        const SmallDigraph sub = SmallDigraph::InducedSubgraph(g, set);
        const DirectedCanonicalResult canon = CanonicalizeDirected(sub);
        auto [it, inserted] = classes.try_emplace(canon.code);
        if (inserted) {
          it->second.pattern = canon.graph;
          it->second.occurrences = OccurrenceList(set.size());
        }
        const std::span<VertexId> occ =
            it->second.occurrences.push_back_uninitialized();
        for (size_t pos = 0; pos < set.size(); ++pos) {
          occ[pos] = set[canon.canonical_to_original[pos]];
        }
        return true;
      });

  // Frequency pruning.
  for (auto it = classes.begin(); it != classes.end();) {
    if (it->second.occurrences.size() < config.min_frequency) {
      it = classes.erase(it);
    } else {
      ++it;
    }
  }
  LAMO_LOG(Info) << classes.size() << " directed size-" << config.size
                 << " classes pass frequency >= " << config.min_frequency;

  // Pass 2: uniqueness against arc-swapped ensembles, counting every class
  // per random network in one enumeration.
  std::map<std::vector<uint8_t>, size_t> wins;
  Rng rng(config.seed);
  for (size_t r = 0; r < config.num_random_networks; ++r) {
    const DiGraph randomized = ArcSwapRewire(g, config.swaps_per_arc, rng);
    const auto random_counts =
        CountDirectedSubgraphClasses(randomized, config.size);
    for (const auto& [code, entry] : classes) {
      auto it = random_counts.find(code);
      const size_t random_frequency =
          it == random_counts.end() ? 0 : it->second;
      if (entry.occurrences.size() >= random_frequency) ++wins[code];
    }
  }

  std::vector<DirectedMotif> motifs;
  for (auto& [code, entry] : classes) {
    const double uniqueness =
        config.num_random_networks == 0
            ? -1.0
            : static_cast<double>(wins[code]) /
                  static_cast<double>(config.num_random_networks);
    if (config.num_random_networks > 0 &&
        uniqueness < config.uniqueness_threshold) {
      continue;
    }
    DirectedMotif motif;
    motif.pattern = entry.pattern;
    motif.as_motif.pattern = entry.pattern.Underlying();
    motif.as_motif.code = code;
    motif.as_motif.frequency = entry.occurrences.size();
    motif.as_motif.uniqueness = uniqueness;
    motif.as_motif.occurrences = std::move(entry.occurrences);
    motif.as_motif.symmetric_sets_override =
        DirectedTwinClasses(entry.pattern);
    motifs.push_back(std::move(motif));
  }
  LAMO_LOG(Info) << motifs.size() << " directed motifs pass uniqueness >= "
                 << config.uniqueness_threshold;
  return motifs;
}

}  // namespace lamo
