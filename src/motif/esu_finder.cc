#include "motif/esu_finder.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "motif/esu.h"
#include "motif/esu_engine.h"
#include "motif/stage_checkpoint.h"
#include "obs/obs.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "util/fault.h"
#include "util/logging.h"

namespace lamo {
namespace {

const size_t kObsSubgraphs = ObsCounterId("esu.subgraphs");
const size_t kObsCanonHits = ObsCounterId("esu.canon_cache_hits");
const size_t kObsCanonMisses = ObsCounterId("esu.canon_cache_misses");
const size_t kHistChunkUs = ObsHistogramId("esu.chunk_us");
const size_t kSpanChunk = ObsSpanId("esu.chunk");

/// Crash points, one per checkpoint group of each half (fault.h).
const size_t kFpEnumChunk = FaultPointId("mine.enum.chunk");
const size_t kFpUniqReplicate = FaultPointId("mine.uniq.replicate");

struct ClassEntry {
  SmallGraph pattern{0};
  OccurrenceList occurrences;
};
using ClassMap = std::map<std::vector<uint8_t>, ClassEntry>;

/// Folds one chunk's class map into the accumulator, appending occurrences
/// in chunk order (the serial occurrence order for any thread count).
void MergeClassMap(ClassMap* acc, ClassMap part) {
  for (auto& [code, entry] : part) {
    auto [it, inserted] = acc->try_emplace(code, std::move(entry));
    if (!inserted) it->second.occurrences.append(entry.occurrences);
  }
}

uint64_t EsuFingerprint(const Graph& graph, const EsuMotifConfig& config) {
  ByteWriter w;
  w.PutU64(config.size);
  w.PutU64(config.min_frequency);
  w.PutU64(config.uniqueness.num_random_networks);
  w.PutDouble(config.uniqueness.swaps_per_edge);
  w.PutDouble(config.uniqueness_threshold);
  w.PutU64(config.uniqueness.seed);
  w.PutU64(GraphFingerprint(graph));
  return Fnv1a64(w.bytes());
}

std::string EncodeEnumState(size_t next_root, const ClassMap& classes) {
  ByteWriter w;
  w.PutU64(next_root);
  w.PutU64(classes.size());
  for (const auto& [code, entry] : classes) {
    w.PutU8Vec(code);
    EncodeSmallGraph(entry.pattern, &w);
    EncodeOccurrences(entry.occurrences, &w);
  }
  return w.TakeBytes();
}

Status DecodeEnumState(std::string_view payload, size_t* next_root,
                       ClassMap* classes) {
  ByteReader r(payload);
  *next_root = static_cast<size_t>(r.GetU64());
  const uint64_t num_classes = r.GetU64();
  classes->clear();
  for (uint64_t i = 0; i < num_classes && r.ok(); ++i) {
    std::vector<uint8_t> code = r.GetU8Vec("class code");
    ClassEntry entry;
    DecodeSmallGraph(&r, &entry.pattern);
    DecodeOccurrences(&r, entry.pattern.num_vertices(), &entry.occurrences);
    classes->emplace(std::move(code), std::move(entry));
  }
  if (r.ok() && !r.AtEnd()) r.Fail("trailing bytes in enum state");
  return r.status();
}

}  // namespace

std::vector<Motif> FindNetworkMotifsEsu(const Graph& graph,
                                        const EsuMotifConfig& config) {
  const size_t n = graph.num_vertices();
  const size_t grain = EsuRootGrain(n);
  const uint64_t fingerprint = EsuFingerprint(graph, config);
  const std::string size_tag = std::to_string(config.size);

  // Index built once per run: CSR neighbor arrays plus (for all but
  // pathological vertex counts) the dense bitset adjacency the ESU engine's
  // inner loop probes. Shared read-only by every chunk worker.
  const GraphIndex index(graph);
  // One canonicalization table for the whole run — every enumeration chunk
  // and every uniqueness replicate resolves through it, so each adjacency
  // pattern is canonicalized once per run.
  SharedCanonCache shared_canon(config.size);

  // Enumeration is sharded by ESU root vertex; per-chunk class maps are
  // merged in chunk order, which reproduces the serial occurrence order
  // (roots ascending, DFS order within a root) for any thread count. With
  // checkpointing on, chunks are processed in groups of `every` — group
  // boundaries are multiples of the grain, so the sub-chunks and their fold
  // order are exactly those of the single full-range reduce, and a resumed
  // run picks up the identical accumulator.
  ClassMap classes;
  {
    const ScopedTimer timer("esu_enumeration");
    const StageCheckpointer ckpt(config.checkpoint, "mine_enum_" + size_tag,
                                 fingerprint);
    size_t next_root = 0;
    std::string payload;
    if (ckpt.TryLoad(&payload)) {
      size_t restored_root = 0;
      ClassMap restored;
      const Status status =
          DecodeEnumState(payload, &restored_root, &restored);
      if (status.ok() && restored_root <= n &&
          (restored_root % grain == 0 || restored_root == n)) {
        classes = std::move(restored);
        next_root = restored_root;
      } else {
        ckpt.RecordDecodeFailure();
      }
    }
    const size_t num_chunks = n == 0 ? 0 : (n + grain - 1) / grain;
    ckpt.RecordChunks(num_chunks, (next_root + grain - 1) / grain);
    const size_t roots_per_group =
        ckpt.enabled() ? std::max<size_t>(1, config.checkpoint.every) * grain
                       : std::max<size_t>(1, n);
    for (size_t glo = next_root; glo < n; glo += roots_per_group) {
      FaultHit(kFpEnumChunk);
      const size_t ghi = std::min(n, glo + roots_per_group);
      const size_t group_chunks = (ghi - glo + grain - 1) / grain;
      std::vector<ClassMap> partials(group_chunks);
      ParallelForChunks(glo, ghi, grain, [&](size_t chunk, size_t lo,
                                             size_t hi) {
        const ScopedItemTimer item(kSpanChunk, kHistChunkUs, lo, hi, 2);
        ClassMap local;
        // Chunk-local L1 in front of the shared table: one hash probe on the
        // adjacency key per emission, one shared lookup per distinct pattern
        // per chunk. Pointers are stable for the cache's lifetime, so caching
        // them is safe.
        std::unordered_map<PatternKey, const CanonicalResult*, PatternKeyHash>
            memo;
        esu_internal::RunEsu(
            index, config.size, static_cast<VertexId>(lo),
            static_cast<VertexId>(hi), [&](const VertexId* set, size_t size) {
              ObsIncrement(kObsSubgraphs);
              const PatternKey bits = index.InducedBits(set, size);
              auto [slot, fresh] = memo.try_emplace(bits, nullptr);
              if (fresh) {
                ObsIncrement(kObsCanonMisses);
                slot->second = &shared_canon.Lookup(bits);
              } else {
                ObsIncrement(kObsCanonHits);
              }
              const CanonicalResult& canon = *slot->second;
              auto [it, inserted] = local.try_emplace(canon.code);
              if (inserted) {
                it->second.pattern = canon.graph;
                it->second.occurrences = OccurrenceList(size);
              }
              const std::span<VertexId> occ =
                  it->second.occurrences.push_back_uninitialized();
              for (size_t pos = 0; pos < size; ++pos) {
                occ[pos] = set[canon.canonical_to_original[pos]];
              }
              return true;
            });
        partials[chunk] = std::move(local);
      });
      for (ClassMap& part : partials) MergeClassMap(&classes, std::move(part));
      if (ckpt.enabled()) ckpt.Save(EncodeEnumState(ghi, classes));
    }
  }

  std::vector<Motif> motifs;
  for (auto& [code, entry] : classes) {
    if (entry.occurrences.size() < config.min_frequency) continue;
    Motif motif;
    motif.pattern = entry.pattern;
    motif.code = code;
    motif.frequency = entry.occurrences.size();
    motif.occurrences = std::move(entry.occurrences);
    motifs.push_back(std::move(motif));
  }
  classes.clear();  // frees the infrequent classes before the ensemble
  LAMO_LOG(Debug) << motifs.size() << " size-" << config.size
                  << " classes pass frequency >= " << config.min_frequency;

  {
    const ScopedTimer timer("uniqueness");
    // Replicates resolve canonical codes through the run-wide shared table:
    // the randomized networks repeat the same adjacency patterns as the real
    // one, so past the first replicate virtually every pattern is resident.
    ScoreUniqueness(
        graph, config.uniqueness, config.checkpoint, "mine_uniq_" + size_tag,
        fingerprint, kFpUniqReplicate,
        [&](const Graph& randomized) {
          const auto census =
              CountSubgraphClasses(randomized, config.size, shared_canon);
          std::vector<size_t> counts(motifs.size(), 0);
          for (size_t m = 0; m < motifs.size(); ++m) {
            const auto it = census.find(motifs[m].code);
            if (it != census.end()) counts[m] = it->second;
          }
          return counts;
        },
        &motifs);
  }
  return FilterUnique(std::move(motifs), config.uniqueness_threshold);
}

}  // namespace lamo
