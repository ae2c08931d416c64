// OccurrenceList: the flat k-stride occurrence container behind Motif and
// LabeledMotif. Order and contents under append/erase at small and maximal
// k, the wrong-length guard, and the byte formats it feeds: the motif codecs
// must reproduce the bytes of the per-occurrence-vector representation it
// replaced, and a miner checkpoint written by that representation must
// still resume.
#include <algorithm>
#include <filesystem>
#include <vector>

#include <gtest/gtest.h>

#include "core/labeled_motif.h"
#include "graph/canonical.h"
#include "graph/generators.h"
#include "motif/miner.h"
#include "motif/motif.h"
#include "obs/obs.h"

namespace lamo {
namespace {

std::vector<VertexId> Ids(std::span<const VertexId> occ) {
  return {occ.begin(), occ.end()};
}

// Occurrence i of the test lists: ids i * 1000 + c for c in [0, k).
std::vector<VertexId> Occ(size_t i, size_t k) {
  std::vector<VertexId> ids(k);
  for (size_t c = 0; c < k; ++c) {
    ids[c] = static_cast<VertexId>(i * 1000 + c);
  }
  return ids;
}

class OccurrenceListOrderTest : public ::testing::TestWithParam<size_t> {};

TEST_P(OccurrenceListOrderTest, AppendIterateEraseKeepOrder) {
  const size_t k = GetParam();
  OccurrenceList list(k);
  EXPECT_EQ(list.k(), k);
  for (size_t i = 0; i < 7; ++i) list.push_back(Occ(i, k));
  ASSERT_EQ(list.size(), 7u);
  EXPECT_EQ(list.ids().size(), 7 * k);
  for (size_t i = 0; i < 7; ++i) EXPECT_EQ(Ids(list[i]), Occ(i, k));
  size_t seen = 0;
  for (const std::span<const VertexId> occ : list) {
    EXPECT_EQ(Ids(occ), Occ(seen++, k));
  }
  EXPECT_EQ(seen, 7u);

  // Erase the middle, the front and the back: the rest keep their order.
  list.erase(3);
  list.erase(0);
  list.erase(list.size() - 1);
  const std::vector<size_t> left = {1, 2, 4, 5};
  ASSERT_EQ(list.size(), left.size());
  for (size_t i = 0; i < left.size(); ++i) {
    EXPECT_EQ(Ids(list[i]), Occ(left[i], k));
  }

  // Capacity changes never touch the contents.
  const OccurrenceList before = list;
  list.reserve(100);
  EXPECT_EQ(list, before);
  list.shrink_to_fit();
  EXPECT_EQ(list, before);

  std::span<VertexId> filled = list.push_back_uninitialized();
  ASSERT_EQ(filled.size(), k);
  std::fill(filled.begin(), filled.end(), VertexId{77});
  EXPECT_EQ(Ids(list[4]), std::vector<VertexId>(k, 77));

  OccurrenceList more(k);
  more.push_back(Occ(9, k));
  list.append(more);
  ASSERT_EQ(list.size(), 6u);
  EXPECT_EQ(Ids(list[5]), Occ(9, k));
  EXPECT_EQ(list.k(), k);
}

INSTANTIATE_TEST_SUITE_P(Sizes, OccurrenceListOrderTest,
                         ::testing::Values(2, 5, 16, SmallGraph::kMaxVertices));

TEST(OccurrenceListTest, EmptyLists) {
  const OccurrenceList unset;
  EXPECT_EQ(unset.k(), 0u);
  EXPECT_EQ(unset.size(), 0u);
  EXPECT_TRUE(unset.empty());
  EXPECT_TRUE(unset.begin() == unset.end());

  OccurrenceList list(4);
  EXPECT_EQ(list.size(), 0u);
  EXPECT_TRUE(list.begin() == list.end());
  list.append(OccurrenceList(4));
  list.append(unset);  // an empty list appends as a no-op whatever its k
  EXPECT_TRUE(list.empty());
  EXPECT_FALSE(list == unset);  // same (no) ids, different k
}

TEST(OccurrenceListDeathTest, WrongLengthAppendChecks) {
  OccurrenceList list(3);
  EXPECT_DEATH(list.push_back({1, 2}), "appended 2 ids to a k=3 list");
  EXPECT_DEATH(list.push_back({1, 2, 3, 4}), "appended 4 ids to a k=3 list");
  OccurrenceList unset;
  EXPECT_DEATH(unset.push_back({1}), "appended 1 ids to a k=0 list");
  OccurrenceList other(2);
  other.push_back({5, 6});
  EXPECT_DEATH(list.append(other), "");
}

// The fixtures whose encodings were recorded from the per-occurrence-vector
// build; the hashes are FNV-1a 64 over the encoded bytes.
Motif SquareMotif() {
  Motif m;
  m.pattern = SmallGraph(4);
  m.pattern.AddEdge(0, 1);
  m.pattern.AddEdge(1, 2);
  m.pattern.AddEdge(2, 3);
  m.pattern.AddEdge(3, 0);
  m.code = CanonicalCode(m.pattern);
  m.occurrences = OccurrenceList(4);
  m.occurrences.push_back({10, 11, 12, 13});
  m.occurrences.push_back({20, 25, 22, 27});
  m.occurrences.push_back({4000000000u, 1, 2, 3});
  m.frequency = 3;
  m.uniqueness = 0.97;
  m.symmetric_sets_override = {{0, 2}, {1, 3}};
  return m;
}

LabeledMotif PathLabeledMotif() {
  LabeledMotif lm;
  lm.pattern = SmallGraph(3);
  lm.pattern.AddEdge(0, 1);
  lm.pattern.AddEdge(1, 2);
  lm.code = CanonicalCode(lm.pattern);
  lm.scheme = {{5, 9}, {}, {12}};
  lm.occurrences = OccurrenceList(3);
  lm.occurrences.push_back({1, 2, 3});
  lm.occurrences.push_back({7, 8, 9});
  lm.frequency = 2;
  lm.uniqueness = 1.0;
  lm.strength = 0.5;
  return lm;
}

TEST(OccurrenceListCodecTest, MotifBytesMatchRecordedEncoding) {
  const Motif m = SquareMotif();
  ByteWriter w;
  EncodeMotif(m, &w);
  EXPECT_EQ(w.bytes().size(), 162u);
  EXPECT_EQ(Fnv1a64(w.bytes()), 0x5c2b3de2f9b0be23ULL);
  ByteReader r(w.bytes());
  Motif back;
  ASSERT_TRUE(DecodeMotif(&r, &back).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.occurrences, m.occurrences);
}

TEST(OccurrenceListCodecTest, LabeledMotifBytesMatchRecordedEncoding) {
  const LabeledMotif lm = PathLabeledMotif();
  ByteWriter w;
  EncodeLabeledMotif(lm, &w);
  EXPECT_EQ(w.bytes().size(), 138u);
  EXPECT_EQ(Fnv1a64(w.bytes()), 0x109c3fe2cae3ab0fULL);
  ByteReader r(w.bytes());
  LabeledMotif back;
  ASSERT_TRUE(DecodeLabeledMotif(&r, &back).ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ(back.occurrences, lm.occurrences);
}

TEST(OccurrenceListCodecTest, RecordLengthOtherThanPatternSizeIsRejected) {
  // Hand-built list: two records, the second claiming 5 ids for k = 4.
  ByteWriter w;
  w.PutU64(2);
  w.PutU64(4);
  for (VertexId v = 0; v < 4; ++v) w.PutU32(v);
  w.PutU64(5);
  for (VertexId v = 0; v < 5; ++v) w.PutU32(v);
  ByteReader r(w.bytes());
  OccurrenceList out;
  EXPECT_FALSE(DecodeOccurrences(&r, 4, &out).ok());

  // A count the remaining bytes cannot hold is rejected before sizing.
  ByteWriter huge;
  huge.PutU64(uint64_t{1} << 60);
  ByteReader hr(huge.bytes());
  EXPECT_FALSE(DecodeOccurrences(&hr, 4, &out).ok());
}

// tests/golden/mine_levels_size3.ckpt: a "mine_levels" checkpoint written
// by the per-occurrence-vector build for the graph and config below, after
// level 3 and before level 4 (a crash injected at the second mine.level
// hit). Resuming from it must decode (no load failure, its one completed
// level counted as resumed) and reproduce the uninterrupted run.
TEST(OccurrenceListCheckpointTest, RecordedMinerCheckpointResumes) {
  Rng rng(7);
  const Graph g = ErdosRenyi(12, 26, rng);
  MinerConfig config;
  config.min_size = 3;
  config.max_size = 5;
  config.min_frequency = 2;
  const std::vector<Motif> fresh = FrequentSubgraphMiner(g, config).Mine();

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "occurrence_list_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::filesystem::copy_file(
      std::filesystem::path(LAMO_GOLDEN_DIR) / "mine_levels_size3.ckpt",
      dir / "mine_levels.ckpt");
  config.checkpoint.dir = dir.string();
  config.checkpoint.resume = true;
  ObsSink sink;
  SetObsSink(&sink);
  const std::vector<Motif> resumed = FrequentSubgraphMiner(g, config).Mine();
  SetObsSink(nullptr);
  std::filesystem::remove_all(dir);

  const auto counters = sink.CounterTotals();
  EXPECT_EQ(counters.at("checkpoint.load_failures"), 0u);
  EXPECT_EQ(counters.at("checkpoint.resumed_chunks"), 1u);
  ASSERT_EQ(resumed.size(), fresh.size());
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(resumed[i].code, fresh[i].code) << "motif " << i;
    EXPECT_EQ(resumed[i].frequency, fresh[i].frequency) << "motif " << i;
    EXPECT_EQ(resumed[i].occurrences, fresh[i].occurrences) << "motif " << i;
  }
}

}  // namespace
}  // namespace lamo
