// Differential and crash-safety tests for the dynamic-interactome serve
// path: UpdateEngine (incremental motif/predictor maintenance), the
// write-ahead UpdateJournal, and SnapshotService's mutation verbs.
//
// The engine differential pins the strongest claim: after a random sequence
// of live edge mutations, every piece of derived state the snapshot carries
// — occurrence multisets, global frequencies, LMS strengths, the site
// index, the GDS signature matrix, the role-vector matrix — equals a
// from-scratch recompute on the final graph. The recompute side enumerates
// the whole graph (full ESU, all k-sets), so it shares none of the
// pair-anchored delta machinery under test.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/lamofinder.h"
#include "graph/canonical.h"
#include "graph/graph_index.h"
#include "motif/esu_engine.h"
#include "motif/uniqueness.h"
#include "predict/gds.h"
#include "predict/role_similarity.h"
#include "serve/journal.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/update.h"
#include "synth/dataset.h"
#include "util/random.h"

namespace lamo {
namespace {

// A small pipeline run packed into a snapshot, with the occurrence cap far
// above any real count so the packed occurrence lists are the *complete*
// conforming sets — the invariant the differential oracle needs (and
// asserts) before mutating anything.
const Snapshot& SmallSnapshot() {
  static const Snapshot* const snapshot = [] {
    SyntheticDatasetConfig config;
    config.num_proteins = 70;
    config.go.num_terms = 50;
    config.go.depth = 4;
    config.num_templates = 2;
    config.copies_per_template = 6;
    config.template_min_size = 3;
    config.template_max_size = 4;
    config.informative_threshold = 8;
    config.seed = 913;
    SyntheticDataset dataset = BuildSyntheticDataset(config);

    MotifFindingConfig motif_config;
    motif_config.miner.min_size = 3;
    motif_config.miner.max_size = 4;
    motif_config.miner.min_frequency = 8;
    motif_config.uniqueness.num_random_networks = 3;
    motif_config.uniqueness_threshold = 0.0;
    const auto motifs = FindNetworkMotifs(dataset.ppi, motif_config);

    LaMoFinder finder(dataset.ontology, dataset.weights, dataset.informative,
                      dataset.annotations);
    LaMoFinderConfig label_config;
    label_config.sigma = 6;
    label_config.max_occurrences = 1'000'000;  // uncapped in practice
    auto labeled = finder.LabelAll(motifs, label_config);

    InformativeConfig informative_config;
    informative_config.min_direct_proteins = config.informative_threshold;
    return new Snapshot(BuildSnapshot(
        std::move(dataset.ppi), std::move(dataset.ontology),
        std::move(dataset.annotations), std::move(labeled),
        informative_config));
  }();
  return *snapshot;
}

std::string CodeKey(const std::vector<uint8_t>& code) {
  return std::string(code.begin(), code.end());
}

// The stored occurrence list as a multiset of sorted vertex sets (alignment
// and order are presentation; the maintained *set* is the contract).
std::multiset<std::vector<VertexId>> StoredSets(const LabeledMotif& motif) {
  std::multiset<std::vector<VertexId>> sets;
  for (const std::span<const VertexId> occ : motif.occurrences) {
    std::vector<VertexId> sorted(occ.begin(), occ.end());
    std::sort(sorted.begin(), sorted.end());
    sets.insert(std::move(sorted));
  }
  return sets;
}

// Oracle: every conforming occurrence of `motif` in `graph`, by a full
// from-scratch enumeration of all connected k-sets (no pair anchoring), each
// canonicalized from its induced SmallGraph (no pattern keys, no
// SharedCanonCache; a local memo on the raw adjacency bytes).
std::multiset<std::vector<VertexId>> FullConformingSets(
    const Graph& graph, LaMoFinder& finder, const LabeledMotif& motif) {
  std::multiset<std::vector<VertexId>> sets;
  const GraphIndex index(graph);
  const std::string want = CodeKey(motif.code);
  std::map<std::vector<uint8_t>, CanonicalResult> memo;
  esu_internal::RunEsu(
      index, motif.size(), 0, static_cast<VertexId>(graph.num_vertices()),
      [&](const VertexId* set, size_t size) {
        std::vector<VertexId> verts(set, set + size);
        const SmallGraph sub = SmallGraph::InducedSubgraph(graph, verts);
        auto [slot, fresh] = memo.try_emplace(sub.AdjacencyCode());
        if (fresh) slot->second = Canonicalize(sub);
        const CanonicalResult& canon = slot->second;
        if (CodeKey(canon.code) != want) return true;
        OccurrenceList occ(size);
        const std::span<VertexId> aligned = occ.push_back_uninitialized();
        for (size_t i = 0; i < size; ++i) {
          aligned[i] = verts[canon.canonical_to_original[i]];
        }
        const Motif probe{motif.pattern, motif.code, occ, 1, -1.0, {}};
        if (!finder.ConformingOccurrences(probe, motif.scheme).empty()) {
          sets.insert(std::move(verts));
        }
        return true;
      });
  return sets;
}

// The site index BuildSnapshot would derive from the current occurrence
// lists: first-seen dedup per protein, non-owned rows cleared on shards.
std::vector<std::vector<SnapshotSite>> RebuildSites(const Snapshot& snap) {
  std::vector<std::vector<SnapshotSite>> sites(snap.graph.num_vertices());
  for (uint32_t mi = 0; mi < snap.motifs.size(); ++mi) {
    for (const std::span<const VertexId> occ : snap.motifs[mi].occurrences) {
      for (uint32_t pos = 0; pos < occ.size(); ++pos) {
        auto& row = sites[occ[pos]];
        const SnapshotSite site{mi, pos};
        if (std::find(row.begin(), row.end(), site) == row.end()) {
          row.push_back(site);
        }
      }
    }
  }
  if (snap.num_shards > 1) {
    for (uint32_t p = 0; p < sites.size(); ++p) {
      if (!snap.OwnsProtein(p)) sites[p].clear();
    }
  }
  return sites;
}

// Every piece of derived state the snapshot carries against a from-scratch
// recompute on its current graph: occurrence multisets and frequencies (the
// full re-mine above), LMS strengths, the GDS and role matrices and the
// site index.
void ExpectMatchesFullRecompute(const Snapshot& snap, LaMoFinder& finder) {
  std::vector<LabeledMotif> expected_motifs = snap.motifs;
  for (size_t mi = 0; mi < snap.motifs.size(); ++mi) {
    const LabeledMotif& motif = snap.motifs[mi];
    const auto expected = FullConformingSets(snap.graph, finder, motif);
    EXPECT_EQ(StoredSets(motif), expected) << "motif " << mi;
    EXPECT_EQ(motif.frequency, expected.size()) << "motif " << mi;
    expected_motifs[mi].frequency = expected.size();
  }
  // Strengths: recomputing from the oracle frequencies must change nothing
  // (the engine already normalized within each size class).
  ComputeMotifStrengths(&expected_motifs);
  for (size_t mi = 0; mi < snap.motifs.size(); ++mi) {
    EXPECT_EQ(snap.motifs[mi].strength, expected_motifs[mi].strength)
        << "motif " << mi;
  }
  EXPECT_EQ(snap.gds_signatures, ComputeGdsSignatures(snap.graph));
  EXPECT_EQ(snap.role_vectors, ComputeRoleVectors(snap.graph, snap.role_dim));
  EXPECT_EQ(snap.sites, RebuildSites(snap));
}

// A random mutation applicable to the current graph: deletes an existing
// edge or adds a missing one (never a self-loop).
DeltaEntry RandomMutation(const Graph& graph, Rng& rng) {
  DeltaEntry entry;
  const auto edges = graph.Edges();
  const bool del = !edges.empty() && rng.Uniform(2) == 0;
  if (del) {
    const auto [u, v] = edges[rng.Uniform(edges.size())];
    entry.add = false;
    entry.u = u;
    entry.v = v;
    return entry;
  }
  const size_t n = graph.num_vertices();
  while (true) {
    const VertexId u = static_cast<VertexId>(rng.Uniform(n));
    const VertexId v = static_cast<VertexId>(rng.Uniform(n));
    if (u == v || graph.HasEdge(u, v)) continue;
    entry.add = true;
    entry.u = u;
    entry.v = v;
    return entry;
  }
}

TEST(UpdateEngineDifferentialTest, MatchesFullRecomputeOverRandomSequence) {
  Snapshot snap = SmallSnapshot();  // mutable copy
  ASSERT_FALSE(snap.motifs.empty());
  ASSERT_FALSE(snap.gds_signatures.empty());
  ASSERT_FALSE(snap.role_vectors.empty());

  LaMoFinder finder(snap.ontology, snap.weights, snap.informative,
                    snap.annotations);

  // Precondition the oracle rests on: the packed lists are complete.
  for (const LabeledMotif& motif : snap.motifs) {
    const auto expected = FullConformingSets(snap.graph, finder, motif);
    ASSERT_EQ(StoredSets(motif), expected) << "packed occurrence list is not "
                                              "the complete conforming set";
    ASSERT_EQ(motif.frequency, expected.size());
  }

  UpdateEngine engine(&snap);
  Rng rng(777);
  for (int step = 0; step < 8; ++step) {
    const DeltaEntry mut = RandomMutation(snap.graph, rng);
    SCOPED_TRACE("step " + std::to_string(step) + " " +
                 std::string(mut.add ? "ADDEDGE " : "DELEDGE ") +
                 std::to_string(mut.u) + " " + std::to_string(mut.v));
    UpdateResult result;
    ASSERT_TRUE(engine.Apply(mut.add, mut.u, mut.v, &result).ok());
    EXPECT_EQ(snap.graph.HasEdge(mut.u, mut.v), mut.add);
    EXPECT_TRUE(std::binary_search(result.affected.begin(),
                                   result.affected.end(), mut.u));
    EXPECT_TRUE(std::binary_search(result.affected.begin(),
                                   result.affected.end(), mut.v));
    ExpectMatchesFullRecompute(snap, finder);
  }
}

// A snapshot whose one labeled motif is the k-cycle: `cycles` disjoint
// k-cycles (its occurrences, protein c * k + i is vertex i of cycle c), then
// a k-vertex path (the tail, proteins cycles * k ..) whose end-to-end edge
// would close one more. Every protein carries the one leaf term and the
// scheme labels every position with it, so every k-cycle conforms.
Snapshot CycleSnapshot(size_t k, size_t cycles) {
  const size_t n = (cycles + 1) * k;
  GraphBuilder builder(n);
  for (size_t c = 0; c <= cycles; ++c) {
    for (size_t i = 0; i < k; ++i) {
      const size_t next = (i + 1) % k;
      if (c == cycles && next == 0) break;  // the tail stays open
      EXPECT_TRUE(builder
                      .AddEdge(static_cast<VertexId>(c * k + i),
                               static_cast<VertexId>(c * k + next))
                      .ok());
    }
  }

  OntologyBuilder terms;
  const TermId root = terms.AddTerm("root");
  const TermId category = terms.AddTerm("category");
  const TermId leaf = terms.AddTerm("leaf");
  EXPECT_TRUE(terms.AddRelation(category, root, RelationType::kIsA).ok());
  EXPECT_TRUE(terms.AddRelation(leaf, category, RelationType::kIsA).ok());
  auto ontology = terms.Build();
  EXPECT_TRUE(ontology.ok());
  AnnotationTable annotations(n);
  for (size_t p = 0; p < n; ++p) {
    EXPECT_TRUE(annotations.Annotate(static_cast<ProteinId>(p), leaf).ok());
  }

  SmallGraph cycle(k);
  for (uint32_t i = 0; i < k; ++i) cycle.AddEdge(i, (i + 1) % k);
  const CanonicalResult canon = Canonicalize(cycle);
  LabeledMotif motif;
  motif.pattern = canon.graph;
  motif.code = canon.code;
  motif.scheme.assign(k, LabelSet{leaf});
  motif.occurrences = OccurrenceList(k);
  for (size_t c = 0; c < cycles; ++c) {
    const std::span<VertexId> occ = motif.occurrences.push_back_uninitialized();
    for (size_t i = 0; i < k; ++i) {
      occ[i] = static_cast<VertexId>(c * k + canon.canonical_to_original[i]);
    }
  }
  motif.frequency = cycles;
  motif.uniqueness = 1.0;
  std::vector<LabeledMotif> motifs = {std::move(motif)};
  ComputeMotifStrengths(&motifs);
  return BuildSnapshot(builder.Build(), std::move(ontology).value(),
                       std::move(annotations), std::move(motifs),
                       InformativeConfig{});
}

// Drives a scripted ADDEDGE/DELEDGE sequence and PREDICT_EDGE scores over
// CycleSnapshot(k, 3), checking each step's occurrence deltas and the whole
// snapshot against the full-recompute oracle.
void ExpectCycleUpdatesMatchFullRecompute(size_t k) {
  Snapshot snap = CycleSnapshot(k, 3);
  LaMoFinder finder(snap.ontology, snap.weights, snap.informative,
                    snap.annotations);
  ASSERT_EQ(snap.motifs.size(), 1u);
  ASSERT_EQ(snap.motifs[0].size(), k);
  ExpectMatchesFullRecompute(snap, finder);  // the packed lists are complete
  if (::testing::Test::HasFailure()) return;

  const auto at = [k](size_t c, size_t i) {
    return static_cast<VertexId>(c * k + i);
  };
  UpdateEngine engine(&snap);
  const auto expect_score = [&](VertexId u, VertexId v, size_t completions) {
    SCOPED_TRACE("PREDICT_EDGE " + std::to_string(u) + " " +
                 std::to_string(v));
    const std::string before = EncodeSnapshot(snap);
    EdgeScore score;
    ASSERT_TRUE(engine.ScoreEdge(u, v, &score).ok());
    EXPECT_EQ(score.completions, completions);
    EXPECT_DOUBLE_EQ(score.score, static_cast<double>(completions) *
                                      snap.motifs[0].strength);
    EXPECT_EQ(score.per_motif.size(), completions == 0 ? 0u : 1u);
    EXPECT_EQ(EncodeSnapshot(snap), before);  // scoring writes nothing
  };

  struct Step {
    bool add;
    VertexId u;
    VertexId v;
    size_t occ_added;
    size_t occ_removed;
  };
  const std::vector<Step> steps = {
      {false, at(0, 0), at(0, 1), 0, 1},      // break cycle 0
      {true, at(3, 0), at(3, k - 1), 1, 0},   // close the tail: a 4th cycle
      {true, at(1, 0), at(2, 0), 0, 0},       // bridge cycles 1 and 2
      {true, at(2, 0), at(2, k / 2), 0, 1},   // chord: cycle 2 stops being one
      {false, at(1, 0), at(2, 0), 0, 0},      // drop the bridge
      {false, at(2, 0), at(2, k / 2), 1, 0},  // drop the chord
      {true, at(0, 0), at(0, 1), 1, 0},       // restore cycle 0
  };
  expect_score(at(3, 0), at(3, k - 1), 1);
  for (const Step& step : steps) {
    SCOPED_TRACE(std::string(step.add ? "ADDEDGE " : "DELEDGE ") +
                 std::to_string(step.u) + " " + std::to_string(step.v));
    UpdateResult result;
    ASSERT_TRUE(engine.Apply(step.add, step.u, step.v, &result).ok());
    EXPECT_EQ(result.occ_added, step.occ_added);
    EXPECT_EQ(result.occ_removed, step.occ_removed);
    ExpectMatchesFullRecompute(snap, finder);
    if (step.u == at(0, 0) && !step.add) {
      expect_score(at(0, 0), at(0, 1), 1);  // the broken cycle re-closes
      expect_score(at(1, 0), at(2, 0), 0);  // a bridge completes no cycle
    }
  }
  EXPECT_EQ(snap.motifs[0].frequency, 4u);
}

// Sizes 11, 12 and 16 (kMaxPatternVertices): past the 11 vertices a 64-bit
// pattern key holds, so each runs on the high half of the 128-bit key. A
// size the update path skipped would leave a broken occurrence stored and
// counted.
TEST(UpdateEngineDifferentialTest, MaintainsSize11CycleMotif) {
  ExpectCycleUpdatesMatchFullRecompute(11);
}

TEST(UpdateEngineDifferentialTest, MaintainsSize12CycleMotif) {
  ExpectCycleUpdatesMatchFullRecompute(12);
}

TEST(UpdateEngineDifferentialTest, MaintainsSize16CycleMotif) {
  ExpectCycleUpdatesMatchFullRecompute(kMaxPatternVertices);
}

TEST(UpdateEngineTest, RefusesMotifsPastPatternLimit) {
  // A size-17 motif is past kMaxPatternVertices: every mutation and every
  // edge score fails loudly, before anything is written.
  const size_t k = kMaxPatternVertices + 1;
  Snapshot snap = CycleSnapshot(k, 2);
  const std::string before = EncodeSnapshot(snap);
  UpdateEngine engine(&snap);
  const VertexId tail_first = static_cast<VertexId>(2 * k);
  const VertexId tail_last = static_cast<VertexId>(3 * k - 1);
  EXPECT_TRUE(engine.Check(false, 0, 1).IsUnimplemented());
  UpdateResult result;
  EXPECT_TRUE(engine.Apply(false, 0, 1, &result).IsUnimplemented());
  EXPECT_TRUE(
      engine.Apply(true, tail_first, tail_last, &result).IsUnimplemented());
  EdgeScore score;
  EXPECT_TRUE(
      engine.ScoreEdge(tail_first, tail_last, &score).IsUnimplemented());
  EXPECT_EQ(EncodeSnapshot(snap), before);
}

TEST(UpdateEngineDifferentialTest, ShardUpdateMatchesShardOfUpdatedFull) {
  // Applying a mutation on every shard must produce exactly the shards of
  // the mutated full snapshot — the property the router's fan-out relies on.
  Snapshot full = SmallSnapshot();
  constexpr uint32_t kShards = 2;
  std::vector<Snapshot> shards;
  for (uint32_t i = 0; i < kShards; ++i) {
    shards.push_back(MakeShard(full, i, kShards));
  }

  UpdateEngine full_engine(&full);
  Rng rng(4242);
  std::vector<DeltaEntry> muts;
  for (int step = 0; step < 4; ++step) {
    const DeltaEntry mut = RandomMutation(full.graph, rng);
    muts.push_back(mut);
    UpdateResult result;
    ASSERT_TRUE(full_engine.Apply(mut.add, mut.u, mut.v, &result).ok());
  }
  for (uint32_t i = 0; i < kShards; ++i) {
    UpdateEngine engine(&shards[i]);
    for (const DeltaEntry& mut : muts) {
      UpdateResult result;
      ASSERT_TRUE(engine.Apply(mut.add, mut.u, mut.v, &result).ok());
    }
    const Snapshot expected = MakeShard(full, i, kShards);
    ASSERT_EQ(shards[i].motifs.size(), expected.motifs.size());
    for (size_t mi = 0; mi < expected.motifs.size(); ++mi) {
      SCOPED_TRACE("shard " + std::to_string(i) + " motif " +
                   std::to_string(mi));
      // Global frequency on the shard even where the occurrence is not
      // stored locally.
      EXPECT_EQ(shards[i].motifs[mi].frequency, expected.motifs[mi].frequency);
      EXPECT_EQ(shards[i].motifs[mi].strength, expected.motifs[mi].strength);
      EXPECT_EQ(StoredSets(shards[i].motifs[mi]),
                StoredSets(expected.motifs[mi]));
    }
    EXPECT_EQ(shards[i].sites, expected.sites);
  }
}

TEST(UpdateEngineTest, RejectsInvalidMutations) {
  Snapshot snap = SmallSnapshot();
  UpdateEngine engine(&snap);
  const std::string before = EncodeSnapshot(snap);
  UpdateResult result;
  EXPECT_FALSE(engine.Apply(true, 0, 0, &result).ok());  // self-loop
  EXPECT_FALSE(
      engine.Apply(true, 0, static_cast<VertexId>(snap.graph.num_vertices()),
                   &result)
          .ok());  // out of range
  const auto edges = snap.graph.Edges();
  ASSERT_FALSE(edges.empty());
  EXPECT_FALSE(
      engine.Apply(true, edges[0].first, edges[0].second, &result).ok());
  VertexId u = 0, v = 0;
  for (u = 0; u < snap.graph.num_vertices() && v == 0; ++u) {
    for (VertexId w = u + 1; w < snap.graph.num_vertices(); ++w) {
      if (!snap.graph.HasEdge(u, w)) {
        v = w;
        --u;
        break;
      }
    }
  }
  EXPECT_FALSE(engine.Apply(false, u, v, &result).ok());  // absent edge
  // Rejected mutations leave the snapshot untouched.
  EXPECT_EQ(EncodeSnapshot(snap), before);
}

TEST(UpdateEngineTest, ScoreEdgeCountsCompletedConformingInstances) {
  // Deleting an edge and re-scoring it must find exactly the conforming
  // instances the deletion destroyed, weighted by the refreshed strengths.
  Snapshot snap = SmallSnapshot();
  UpdateEngine engine(&snap);
  // Pick an edge that participates in at least one stored occurrence.
  VertexId u = 0, v = 0;
  bool found = false;
  for (const LabeledMotif& motif : snap.motifs) {
    for (const std::span<const VertexId> occ : motif.occurrences) {
      for (size_t i = 0; i < occ.size() && !found; ++i) {
        for (size_t j = i + 1; j < occ.size() && !found; ++j) {
          if (snap.graph.HasEdge(occ[i], occ[j])) {
            u = occ[i];
            v = occ[j];
            found = true;
          }
        }
      }
      if (found) break;
    }
    if (found) break;
  }
  ASSERT_TRUE(found);

  EdgeScore present;
  EXPECT_FALSE(engine.ScoreEdge(u, v, &present).ok());  // edge exists

  UpdateResult del;
  ASSERT_TRUE(engine.Apply(false, u, v, &del).ok());
  EdgeScore score;
  ASSERT_TRUE(engine.ScoreEdge(u, v, &score).ok());
  // Every conforming instance the deletion removed from the global counts
  // is a completion for the candidate edge (freq deltas count conforming
  // instances whether or not this shard stores them; on 1 shard they agree
  // with occ_removed).
  EXPECT_EQ(score.completions, del.occ_removed);
  double expected_score = 0.0;
  for (const auto& [mi, count] : score.per_motif) {
    expected_score += static_cast<double>(count) * snap.motifs[mi].strength;
  }
  EXPECT_DOUBLE_EQ(score.score, expected_score);
  // Scoring leaves the graph unchanged.
  EXPECT_FALSE(snap.graph.HasEdge(u, v));

  // Re-adding restores the instances; the score predicted exactly what the
  // addition creates.
  UpdateResult addback;
  ASSERT_TRUE(engine.Apply(true, u, v, &addback).ok());
  EXPECT_EQ(addback.occ_added, score.completions);
}

// ---- journal ---------------------------------------------------------------

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name + "." +
         std::to_string(::getpid());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

TEST(DeltaLineTest, ParsesWireGrammarExactly) {
  auto add = ParseDeltaLine("ADDEDGE 3 9");
  ASSERT_TRUE(add.ok());
  EXPECT_TRUE(add->add);
  EXPECT_EQ(add->u, 3u);
  EXPECT_EQ(add->v, 9u);
  auto del = ParseDeltaLine("DELEDGE 12 0");
  ASSERT_TRUE(del.ok());
  EXPECT_FALSE(del->add);
  EXPECT_EQ(del->u, 12u);
  EXPECT_EQ(del->v, 0u);
  EXPECT_FALSE(ParseDeltaLine("").ok());
  EXPECT_FALSE(ParseDeltaLine("ADDEDGE").ok());
  EXPECT_FALSE(ParseDeltaLine("ADDEDGE 1").ok());
  EXPECT_FALSE(ParseDeltaLine("ADDEDGE 1 2 3").ok());
  EXPECT_FALSE(ParseDeltaLine("ADDEDGE one two").ok());
  EXPECT_FALSE(ParseDeltaLine("PREDICT 1").ok());

  EXPECT_TRUE(IsDeltaComment(""));
  EXPECT_TRUE(IsDeltaComment("# note"));
  EXPECT_TRUE(IsDeltaComment("LAMOJOURNAL 1 0000000000000000"));
  EXPECT_FALSE(IsDeltaComment("ADDEDGE 1 2"));
}

TEST(UpdateJournalTest, AppendsAndReplaysAcrossReopen) {
  const std::string path = TempPath("journal.roundtrip");
  std::remove(path.c_str());
  {
    std::vector<DeltaEntry> replay;
    auto journal = UpdateJournal::Open(path, 0xABCDu, &replay);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    EXPECT_TRUE(replay.empty());
    ASSERT_TRUE(journal->Append({true, 4, 7}).ok());
    ASSERT_TRUE(journal->Append({false, 1, 2}).ok());
    EXPECT_EQ(journal->entries(), 2u);
  }
  std::vector<DeltaEntry> replay;
  auto journal = UpdateJournal::Open(path, 0xABCDu, &replay);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(replay.size(), 2u);
  EXPECT_TRUE(replay[0].add);
  EXPECT_EQ(replay[0].u, 4u);
  EXPECT_EQ(replay[0].v, 7u);
  EXPECT_FALSE(replay[1].add);
  EXPECT_EQ(replay[1].u, 1u);
  EXPECT_EQ(replay[1].v, 2u);
  std::remove(path.c_str());
}

TEST(UpdateJournalTest, IgnoresTornTrailingLine) {
  // A crash mid-append leaves a line without '\n'; that update was never
  // acknowledged, so replay must skip it — and the next append must not
  // fuse with the fragment.
  const std::string path = TempPath("journal.torn");
  WriteFile(path,
            "LAMOJOURNAL 1 0000000000001234\nADDEDGE 1 2\nDELEDGE 9");
  std::vector<DeltaEntry> replay;
  auto journal = UpdateJournal::Open(path, 0x1234u, &replay);
  ASSERT_TRUE(journal.ok()) << journal.status().ToString();
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_TRUE(replay[0].add);
  std::remove(path.c_str());
}

TEST(UpdateJournalTest, RejectsChecksumMismatchAndGarbage) {
  const std::string path = TempPath("journal.bad");
  WriteFile(path, "LAMOJOURNAL 1 0000000000001234\nADDEDGE 1 2\n");
  std::vector<DeltaEntry> replay;
  // Journal written against a different base snapshot: refuse to replay.
  EXPECT_FALSE(UpdateJournal::Open(path, 0x9999u, &replay).ok());
  // A complete but unparseable entry is corruption, not a skip.
  WriteFile(path, "LAMOJOURNAL 1 0000000000001234\nADDEDGE one two\n");
  EXPECT_FALSE(UpdateJournal::Open(path, 0x1234u, &replay).ok());
  // Wrong header entirely.
  WriteFile(path, "not a journal\n");
  EXPECT_FALSE(UpdateJournal::Open(path, 0x1234u, &replay).ok());
  std::remove(path.c_str());
}

// ---- service ---------------------------------------------------------------

// An edge of some stored occurrence (deleting it changes answers) plus a
// non-edge for PREDICT_EDGE.
void PickInterestingPair(const Snapshot& snap, VertexId* u, VertexId* v) {
  for (const LabeledMotif& motif : snap.motifs) {
    for (const std::span<const VertexId> occ : motif.occurrences) {
      for (size_t i = 0; i < occ.size(); ++i) {
        for (size_t j = i + 1; j < occ.size(); ++j) {
          if (snap.graph.HasEdge(occ[i], occ[j])) {
            *u = occ[i];
            *v = occ[j];
            return;
          }
        }
      }
    }
  }
  FAIL() << "no stored occurrence with an edge";
}

TEST(ServiceUpdateTest, CachedResponsesNeverGoStale) {
  // The regression the cache invalidation exists for: query, mutate, query
  // again. A cached service must answer exactly like an uncached one at
  // every step — if invalidation missed an affected entry, the second
  // PREDICT would serve the pre-update bytes.
  VertexId u = 0, v = 0;
  PickInterestingPair(SmallSnapshot(), &u, &v);
  SnapshotService cached{Snapshot(SmallSnapshot())};
  SnapshotService uncached{Snapshot(SmallSnapshot()), /*cache_capacity=*/0};

  std::vector<std::string> script;
  for (const VertexId p : {u, v}) {
    script.push_back("PREDICT " + std::to_string(p) + " 5");
    script.push_back("MOTIFS " + std::to_string(p));
  }
  script.push_back("DELEDGE " + std::to_string(u) + " " + std::to_string(v));
  for (const VertexId p : {u, v}) {
    script.push_back("PREDICT " + std::to_string(p) + " 5");  // was cached
    script.push_back("MOTIFS " + std::to_string(p));
  }
  script.push_back("PREDICT_EDGE " + std::to_string(u) + " " +
                   std::to_string(v));
  script.push_back("ADDEDGE " + std::to_string(u) + " " + std::to_string(v));
  for (const VertexId p : {u, v}) {
    script.push_back("PREDICT " + std::to_string(p) + " 5");
  }
  // The applied line's evicted= count legitimately differs (the uncached
  // service has nothing to invalidate); everything else must match.
  const auto strip_evicted = [](std::string response) {
    const size_t pos = response.find(" evicted=");
    if (pos != std::string::npos) {
      response.erase(pos, response.find('\n', pos) - pos);
    }
    return response;
  };
  for (const std::string& line : script) {
    SCOPED_TRACE(line);
    EXPECT_EQ(strip_evicted(cached.Handle(line)),
              strip_evicted(uncached.Handle(line)));
  }
  EXPECT_EQ(cached.stats().updates.load(), 2u);
}

TEST(ServiceUpdateTest, MutationVerbsValidateAndReport) {
  SnapshotService service{Snapshot(SmallSnapshot())};
  const auto edges = SmallSnapshot().graph.Edges();
  ASSERT_FALSE(edges.empty());
  const std::string edge = std::to_string(edges[0].first) + " " +
                           std::to_string(edges[0].second);
  EXPECT_EQ(service.Handle("ADDEDGE " + edge).rfind("ERR AlreadyExists", 0),
            0u);
  EXPECT_EQ(service.Handle("ADDEDGE 0 0").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(service.Handle("DELEDGE 999999 1").rfind("ERR InvalidArgument", 0),
            0u);
  EXPECT_EQ(service.Handle("ADDEDGE 1").rfind("ERR InvalidArgument", 0), 0u);
  const std::string applied = service.Handle("DELEDGE " + edge);
  EXPECT_EQ(applied.rfind("OK 1", 0), 0u);
  EXPECT_NE(applied.find("applied DELEDGE " + edge), std::string::npos);
  // STATS reports the update.
  const std::string stats = service.Handle("STATS");
  EXPECT_NE(stats.find("\nupdates 1\n"), std::string::npos);
}

TEST(ServiceUpdateTest, JournalReplayReproducesLiveState) {
  const std::string path = TempPath("journal.service");
  std::remove(path.c_str());
  VertexId u = 0, v = 0;
  PickInterestingPair(SmallSnapshot(), &u, &v);
  const std::string query = "PREDICT " + std::to_string(u) + " 5";
  std::string live_answer;
  {
    SnapshotService live{Snapshot(SmallSnapshot())};
    ASSERT_TRUE(live.AttachJournal(path).ok());
    ASSERT_EQ(live.Handle("DELEDGE " + std::to_string(u) + " " +
                          std::to_string(v))
                  .rfind("OK", 0),
              0u);
    live_answer = live.Handle(query);
  }
  // A fresh process over the untouched base snapshot + the journal must
  // replay to the exact same answers.
  SnapshotService restarted{Snapshot(SmallSnapshot())};
  ASSERT_TRUE(restarted.AttachJournal(path).ok());
  EXPECT_EQ(restarted.stats().updates.load(), 1u);
  EXPECT_EQ(restarted.Handle(query), live_answer);
  // Mismatched base snapshot: refuse.
  Snapshot other = SmallSnapshot();
  other.checksum ^= 0x1;
  SnapshotService wrong{std::move(other)};
  EXPECT_FALSE(wrong.AttachJournal(path).ok());
  std::remove(path.c_str());
}

TEST(ServiceUpdateTest, ConcurrentQueriesAndUpdatesAreSerialized) {
  // TSan-visible hammer: readers race PREDICT/MOTIFS and PREDICT_EDGE
  // (under the shared lock) against a writer toggling an edge and scoring
  // candidates. The service serializes mutations behind the snapshot lock;
  // every response must still be a well-formed OK/ERR (and under TSan, data-
  // race free), and every reader's PREDICT_EDGE must be byte-for-byte the
  // answer for the toggled edge present or absent, never a mix.
  VertexId u = 0, v = 0;
  PickInterestingPair(SmallSnapshot(), &u, &v);
  const size_t n = SmallSnapshot().graph.num_vertices();
  // A fixed absent candidate {u, b} whose score depends on {u, v}.
  std::string edge_query, edge_present, edge_absent;
  {
    SnapshotService present{Snapshot(SmallSnapshot())};
    SnapshotService absent{Snapshot(SmallSnapshot())};
    ASSERT_EQ(absent.Handle("DELEDGE " + std::to_string(u) + " " +
                            std::to_string(v))
                  .rfind("OK", 0),
              0u);
    for (VertexId b = 0; b < n && edge_present == edge_absent; ++b) {
      if (b == u || b == v || SmallSnapshot().graph.HasEdge(u, b)) continue;
      edge_query =
          "PREDICT_EDGE " + std::to_string(u) + " " + std::to_string(b);
      edge_present = present.Handle(edge_query);
      edge_absent = absent.Handle(edge_query);
    }
    ASSERT_NE(edge_present, edge_absent) << "no candidate depends on the edge";
    ASSERT_EQ(edge_present.rfind("OK", 0), 0u);
    ASSERT_EQ(edge_absent.rfind("OK", 0), 0u);
  }
  SnapshotService service{Snapshot(SmallSnapshot())};
  std::atomic<bool> stop{false};
  std::atomic<size_t> malformed{0};
  std::atomic<size_t> torn_scores{0};
  std::atomic<size_t> scores{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(1000 + t);
      // The first request is always a score, so every reader sends one.
      for (bool first = true; first || !stop.load(std::memory_order_acquire);
           first = false) {
        const uint64_t pick = first ? 2 : rng.Uniform(3);
        if (pick == 2) {
          const std::string response = service.Handle(edge_query);
          scores.fetch_add(1);
          if (response != edge_present && response != edge_absent) {
            torn_scores.fetch_add(1);
          }
          continue;
        }
        const VertexId p = static_cast<VertexId>(rng.Uniform(n));
        const std::string verb = pick == 1 ? "PREDICT " : "MOTIFS ";
        const std::string response =
            service.Handle(verb + std::to_string(p));
        if (response.rfind("OK", 0) != 0 && response.rfind("ERR", 0) != 0) {
          malformed.fetch_add(1);
        }
      }
    });
  }
  std::thread writer([&service, u, v, &malformed] {
    const std::string del =
        "DELEDGE " + std::to_string(u) + " " + std::to_string(v);
    const std::string add =
        "ADDEDGE " + std::to_string(u) + " " + std::to_string(v);
    const std::string score =
        "PREDICT_EDGE " + std::to_string(u) + " " + std::to_string(v);
    for (int i = 0; i < 10; ++i) {
      if (service.Handle(del).rfind("OK", 0) != 0) malformed.fetch_add(1);
      if (service.Handle(score).rfind("OK", 0) != 0) malformed.fetch_add(1);
      if (service.Handle(add).rfind("OK", 0) != 0) malformed.fetch_add(1);
    }
  });
  writer.join();
  stop.store(true, std::memory_order_release);
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(malformed.load(), 0u);
  EXPECT_EQ(torn_scores.load(), 0u);
  EXPECT_GT(scores.load(), 0u);
  EXPECT_EQ(service.stats().updates.load(), 20u);
}

}  // namespace
}  // namespace lamo
