#include "motif/uniqueness.h"

#include <algorithm>

#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "motif/stage_checkpoint.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/random.h"

namespace lamo {
namespace {

const size_t kObsReplicates = ObsCounterId("uniqueness.replicates");
/// Pattern-vs-randomized-network frequency comparisons across all replicates.
const size_t kObsPatternTests = ObsCounterId("uniqueness.pattern_tests");
/// Per-replicate latency: each replicate rewires the network and re-counts
/// every surviving pattern, so this histogram shows ensemble cost spread.
const size_t kHistReplicateUs = ObsHistogramId("uniqueness.replicate_us");
const size_t kSpanReplicate = ObsSpanId("uniqueness.replicate");

/// Crash point of the level-wise route, hit once per replicate group.
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

void ScoreUniqueness(const Graph& graph, const UniquenessConfig& config,
                     const CheckpointOptions& checkpoint,
                     const std::string& stage, uint64_t fingerprint,
                     size_t fault_point, const ReplicateCounter& count,
                     std::vector<Motif>* motifs) {
  LAMO_CHECK(motifs != nullptr);
  const size_t networks = config.num_random_networks;
  if (motifs->empty() || networks == 0) return;
  // The win counts are exact integer sums of per-replicate indicators, so
  // replicate groups accumulate to the same totals in any grouping, and a
  // run resumed from a group checkpoint matches an uninterrupted one.
  const StageCheckpointer ckpt(checkpoint, stage, fingerprint);
  std::vector<uint64_t> wins(motifs->size(), 0);
  size_t next_replicate = 0;
  std::string payload;
  if (ckpt.TryLoad(&payload)) {
    size_t restored_replicate = 0;
    std::vector<uint64_t> restored;
    const Status status = DecodeWinState(payload, motifs->size(),
                                         &restored_replicate, &restored);
    if (status.ok() && restored_replicate <= networks) {
      wins = std::move(restored);
      next_replicate = restored_replicate;
    } else {
      ckpt.RecordDecodeFailure();
    }
  }
  ckpt.RecordChunks(networks, next_replicate);
  const size_t replicates_per_group =
      ckpt.enabled() ? std::max<size_t>(1, checkpoint.every) : networks;
  for (size_t rlo = next_replicate; rlo < networks;
       rlo += replicates_per_group) {
    FaultHit(fault_point);
    const size_t rhi = std::min(networks, rlo + replicates_per_group);
    const auto replicate_wins = ParallelMap(rhi - rlo, 1, [&](size_t i) {
      const size_t r = rlo + i;
      const ScopedItemTimer item(kSpanReplicate, kHistReplicateUs, r, 0, 1);
      ObsIncrement(kObsReplicates);
      ObsAdd(kObsPatternTests, motifs->size());
      Rng rng = Rng::Stream(config.seed, r);
      const std::vector<size_t> random_counts =
          count(DegreePreservingRewire(graph, config.swaps_per_edge, rng));
      std::vector<uint8_t> won(motifs->size(), 0);
      for (size_t m = 0; m < motifs->size(); ++m) {
        won[m] = (*motifs)[m].frequency >= random_counts[m] ? 1 : 0;
      }
      return won;
    });
    for (const auto& won : replicate_wins) {
      for (size_t m = 0; m < motifs->size(); ++m) wins[m] += won[m];
    }
    if (ckpt.enabled()) ckpt.Save(EncodeWinState(rhi, wins));
  }
  for (size_t m = 0; m < motifs->size(); ++m) {
    (*motifs)[m].uniqueness =
        static_cast<double>(wins[m]) / static_cast<double>(networks);
  }
}

void EvaluateUniqueness(const Graph& graph, const UniquenessConfig& config,
                        std::vector<Motif>* motifs,
                        const CheckpointOptions& checkpoint) {
  LAMO_CHECK(motifs != nullptr);
  const std::vector<Motif>& list = *motifs;
  ScoreUniqueness(
      graph, config, checkpoint, "uniqueness",
      UniquenessFingerprint(graph, config, list), kFpReplicate,
      [&list](const Graph& randomized) {
        std::vector<size_t> counts(list.size());
        for (size_t m = 0; m < list.size(); ++m) {
          counts[m] = CountOccurrences(list[m].pattern, randomized,
                                       list[m].frequency + 1);
        }
        return counts;
      },
      motifs);
}

std::vector<Motif> FilterUnique(std::vector<Motif> motifs, double threshold) {
  motifs.erase(std::remove_if(motifs.begin(), motifs.end(),
                              [&](const Motif& m) {
                                return m.uniqueness >= 0.0 &&
                                       m.uniqueness < threshold;
                              }),
               motifs.end());
  return motifs;
}

std::vector<Motif> FindNetworkMotifs(const Graph& graph,
                                     const MotifFindingConfig& config) {
  FrequentSubgraphMiner miner(graph, config.miner);
  std::vector<Motif> motifs;
  {
    const ScopedTimer timer("miner");
    motifs = miner.Mine();
  }
  LAMO_LOG(Info) << "mined " << motifs.size() << " frequent patterns";
  {
    const ScopedTimer timer("uniqueness");
    EvaluateUniqueness(graph, config.uniqueness, &motifs,
                       config.miner.checkpoint);
  }
  motifs = FilterUnique(std::move(motifs), config.uniqueness_threshold);
  LAMO_LOG(Info) << motifs.size() << " patterns pass uniqueness >= "
                 << config.uniqueness_threshold;
  return motifs;
}

}  // namespace lamo
