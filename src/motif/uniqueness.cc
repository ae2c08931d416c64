#include "motif/uniqueness.h"

#include <algorithm>

#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "motif/miner.h"
#include "motif/stage_checkpoint.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/fault.h"
#include "util/logging.h"

namespace lamo {
namespace {

const size_t kObsReplicates = ObsCounterId("uniqueness.replicates");
/// Pattern-vs-randomized-network frequency comparisons across all replicates.
const size_t kObsPatternTests = ObsCounterId("uniqueness.pattern_tests");
/// Per-replicate latency: each replicate rewires the network and re-counts
/// every surviving pattern, so this histogram shows ensemble cost spread.
const size_t kHistReplicateUs = ObsHistogramId("uniqueness.replicate_us");
const size_t kSpanReplicate = ObsSpanId("uniqueness.replicate");

/// Crash point, hit once per replicate group (fault.h).
const size_t kFpReplicate = FaultPointId("uniqueness.replicate");

uint64_t UniquenessFingerprint(const Graph& graph,
                               const UniquenessConfig& config,
                               const std::vector<Motif>& motifs) {
  ByteWriter w;
  w.PutU64(config.num_random_networks);
  w.PutDouble(config.swaps_per_edge);
  w.PutU64(config.seed);
  w.PutU64(GraphFingerprint(graph));
  // The win vector is indexed by motif order, so the checkpoint is only
  // valid for this exact motif list.
  w.PutU64(motifs.size());
  for (const Motif& m : motifs) {
    w.PutU8Vec(m.code);
    w.PutU64(m.frequency);
  }
  return Fnv1a64(w.bytes());
}

}  // namespace

void EvaluateUniqueness(const Graph& graph, const UniquenessConfig& config,
                        std::vector<Motif>* motifs) {
  LAMO_CHECK(motifs != nullptr);
  if (motifs->empty() || config.num_random_networks == 0) return;
  // One randomized network per task. Each replicate r draws from its own
  // deterministic substream Rng::Stream(seed, r), so the ensemble — and the
  // resulting uniqueness scores — is identical for any thread count, and a
  // run resumed from a replicate-group checkpoint accumulates the exact
  // integer win counts an uninterrupted run would.
  const StageCheckpointer ckpt(
      config.checkpoint, "uniqueness",
      UniquenessFingerprint(graph, config, *motifs));
  std::vector<uint64_t> wins(motifs->size(), 0);
  size_t next_replicate = 0;
  std::string payload;
  if (ckpt.TryLoad(&payload)) {
    size_t restored_replicate = 0;
    std::vector<uint64_t> restored;
    const Status status = DecodeWinState(payload, motifs->size(),
                                         &restored_replicate, &restored);
    if (status.ok() && restored_replicate <= config.num_random_networks) {
      wins = std::move(restored);
      next_replicate = restored_replicate;
    } else {
      ckpt.RecordDecodeFailure();
    }
  }
  ckpt.RecordChunks(config.num_random_networks, next_replicate);
  const size_t replicates_per_group =
      ckpt.enabled() ? std::max<size_t>(1, config.checkpoint.every)
                     : config.num_random_networks;
  for (size_t rlo = next_replicate; rlo < config.num_random_networks;
       rlo += replicates_per_group) {
    FaultHit(kFpReplicate);
    const size_t rhi =
        std::min(config.num_random_networks, rlo + replicates_per_group);
    const auto replicate_wins = ParallelMap(rhi - rlo, 1, [&](size_t i) {
      const size_t r = rlo + i;
      const ScopedItemTimer item(kSpanReplicate, kHistReplicateUs, r, 0, 1);
      ObsIncrement(kObsReplicates);
      ObsAdd(kObsPatternTests, motifs->size());
      Rng rng = Rng::Stream(config.seed, r);
      const Graph randomized =
          DegreePreservingRewire(graph, config.swaps_per_edge, rng);
      std::vector<uint8_t> won(motifs->size(), 0);
      for (size_t m = 0; m < motifs->size(); ++m) {
        const Motif& motif = (*motifs)[m];
        // We only need to know whether the randomized frequency exceeds
        // the real one, so counting may stop at frequency+1 occurrences.
        const size_t random_frequency =
            CountOccurrences(motif.pattern, randomized, motif.frequency + 1);
        won[m] = motif.frequency >= random_frequency ? 1 : 0;
      }
      return won;
    });
    for (const auto& won : replicate_wins) {
      for (size_t m = 0; m < motifs->size(); ++m) wins[m] += won[m];
    }
    if (ckpt.enabled()) ckpt.Save(EncodeWinState(rhi, wins));
  }
  for (size_t i = 0; i < motifs->size(); ++i) {
    (*motifs)[i].uniqueness = static_cast<double>(wins[i]) /
                              static_cast<double>(config.num_random_networks);
  }
}

std::vector<Motif> FilterUnique(std::vector<Motif> motifs, double threshold) {
  motifs.erase(std::remove_if(motifs.begin(), motifs.end(),
                              [&](const Motif& m) {
                                return m.uniqueness < threshold;
                              }),
               motifs.end());
  return motifs;
}

std::vector<Motif> FindNetworkMotifs(const Graph& graph,
                                     const MotifFindingConfig& config) {
  MinerConfig miner_config;
  miner_config.min_size = config.miner.min_size;
  miner_config.max_size = config.miner.max_size;
  miner_config.min_frequency = config.miner.min_frequency;
  miner_config.max_occurrences_per_pattern =
      config.miner.max_occurrences_per_pattern;
  miner_config.max_patterns_per_level = config.miner.max_patterns_per_level;
  miner_config.checkpoint = config.checkpoint;

  FrequentSubgraphMiner miner(graph, miner_config);
  std::vector<Motif> motifs;
  {
    const ScopedTimer timer("miner");
    motifs = miner.Mine();
  }
  LAMO_LOG(Info) << "mined " << motifs.size() << " frequent patterns";
  {
    const ScopedTimer timer("uniqueness");
    UniquenessConfig uniq_config = config.uniqueness;
    uniq_config.checkpoint = config.checkpoint;
    EvaluateUniqueness(graph, uniq_config, &motifs);
  }
  motifs = FilterUnique(std::move(motifs), config.uniqueness_threshold);
  LAMO_LOG(Info) << motifs.size() << " patterns pass uniqueness >= "
                 << config.uniqueness_threshold;
  return motifs;
}

}  // namespace lamo
