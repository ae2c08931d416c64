#include "io/motif_io.h"

#include <algorithm>
#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "graph/canonical.h"
#include "synth/go_generator.h"
#include "util/atomic_io.h"
#include "util/fault.h"

namespace lamo {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

Motif MakeSquareMotif() {
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
  m.frequency = 2;
  m.uniqueness = 0.97;
  return m;
}

TEST(MotifIoTest, RoundTrip) {
  const std::vector<Motif> motifs{MakeSquareMotif()};
  const std::string path = TempPath("motifs.txt");
  ASSERT_TRUE(WriteMotifs(motifs, path).ok());
  auto loaded = ReadMotifs(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), 1u);
  const Motif& m = (*loaded)[0];
  EXPECT_TRUE(m.pattern == motifs[0].pattern);
  EXPECT_EQ(m.code, motifs[0].code);
  EXPECT_EQ(m.frequency, 2u);
  EXPECT_DOUBLE_EQ(m.uniqueness, 0.97);
  ASSERT_EQ(m.occurrences.size(), 2u);
  EXPECT_TRUE(std::ranges::equal(m.occurrences[1],
                                 std::vector<VertexId>{20, 25, 22, 27}));
}

TEST(MotifIoTest, MultipleMotifs) {
  std::vector<Motif> motifs{MakeSquareMotif(), MakeSquareMotif()};
  motifs[1].pattern.AddEdge(0, 2);
  motifs[1].code = CanonicalCode(motifs[1].pattern);
  const std::string path = TempPath("motifs2.txt");
  ASSERT_TRUE(WriteMotifs(motifs, path).ok());
  auto loaded = ReadMotifs(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), 2u);
  EXPECT_NE((*loaded)[0].code, (*loaded)[1].code);
}

TEST(MotifIoTest, CorruptInputs) {
  const std::string path = TempPath("bad_motifs.txt");
  std::ofstream(path) << "motif 3 5 1.0\nocc 1 2\nend\n";  // arity mismatch
  EXPECT_TRUE(ReadMotifs(path).status().IsCorruption());
  std::ofstream(path) << "occ 1 2 3\n";  // stray occ
  EXPECT_TRUE(ReadMotifs(path).status().IsCorruption());
  std::ofstream(path) << "motif 3 5 1.0\nedges 0-1\n";  // unterminated
  EXPECT_TRUE(ReadMotifs(path).status().IsCorruption());
  EXPECT_TRUE(ReadMotifs("/nonexistent/x").status().IsIoError());
}

TEST(LabeledMotifIoTest, RoundTripWithOntology) {
  GoGeneratorConfig config;
  config.num_terms = 40;
  Rng rng(81);
  const Ontology ontology = GenerateGoBranch(config, rng);

  LabeledMotif lm;
  lm.pattern = SmallGraph(3);
  lm.pattern.AddEdge(0, 1);
  lm.pattern.AddEdge(1, 2);
  lm.code = CanonicalCode(lm.pattern);
  lm.scheme.resize(3);
  lm.scheme[0] = {5, 9};
  lm.scheme[2] = {12};  // position 1 stays "unknown"
  lm.occurrences = OccurrenceList(3);
  lm.occurrences.push_back({1, 2, 3});
  lm.occurrences.push_back({7, 8, 9});
  lm.frequency = 2;
  lm.uniqueness = 1.0;
  lm.strength = 0.5;

  const std::string path = TempPath("labeled.txt");
  ASSERT_TRUE(WriteLabeledMotifs({lm}, ontology, path).ok());
  auto loaded = ReadLabeledMotifs(path, ontology);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  ASSERT_EQ(loaded->size(), 1u);
  const LabeledMotif& back = (*loaded)[0];
  EXPECT_TRUE(back.pattern == lm.pattern);
  EXPECT_EQ(back.scheme, lm.scheme);
  EXPECT_EQ(back.frequency, 2u);
  EXPECT_DOUBLE_EQ(back.strength, 0.5);
  ASSERT_EQ(back.occurrences.size(), 2u);
  EXPECT_TRUE(std::ranges::equal(back.occurrences[0],
                                 std::vector<VertexId>{1, 2, 3}));
}

TEST(LabeledMotifIoTest, UnknownTermRejected) {
  GoGeneratorConfig config;
  config.num_terms = 10;
  Rng rng(82);
  const Ontology ontology = GenerateGoBranch(config, rng);
  const std::string path = TempPath("bad_labeled.txt");
  std::ofstream(path) << "labeled 3 1 1.0 0.5\nedges 0-1 1-2\n"
                      << "labels 0 NOPE\nocc 1 2 3\nend\n";
  EXPECT_TRUE(ReadLabeledMotifs(path, ontology).status().IsCorruption());
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

/// Three motifs, each of which the writer renders and writes on its own.
std::vector<Motif> LargeMotifs() {
  std::vector<Motif> motifs;
  for (VertexId i = 0; i < 3; ++i) {
    Motif m = MakeSquareMotif();
    m.occurrences = OccurrenceList(4);
    for (VertexId v = 0; v < 20000; ++v) {
      m.occurrences.push_back({v, v + 1, v + 2, v + 3 + i});
    }
    m.frequency = m.occurrences.size();
    motifs.push_back(std::move(m));
  }
  return motifs;
}

TEST(MotifIoFaultTest, ShortWritesAndEintrGiveTheSameBytes) {
  const std::vector<Motif> motifs = LargeMotifs();
  const std::string path = TempPath("faulted_motifs.txt");
  ASSERT_TRUE(WriteMotifs(motifs, path).ok());
  const std::string want = ReadAll(path);
  // Write calls 1-4 are the title and the three motifs: a fault inside
  // the first motif and one inside the last.
  for (const char* spec :
       {"atomic.write:2:short_write", "atomic.write:4:short_write",
        "atomic.write:2:eintr", "atomic.write:4:eintr"}) {
    SCOPED_TRACE(spec);
    std::filesystem::remove(path);
    FaultArmForTest(spec);
    const Status status = WriteMotifs(motifs, path);
    FaultArmForTest(nullptr);
    ASSERT_TRUE(status.ok()) << status;
    EXPECT_EQ(ReadAll(path), want);
  }
}

TEST(MotifIoFaultTest, InjectedErrorLeavesTheOldFileAndNoTmp) {
  const std::string path = TempPath("error_motifs.txt");
  ASSERT_TRUE(WriteMotifs({MakeSquareMotif()}, path).ok());
  const std::string old = ReadAll(path);
  FaultArmForTest("atomic.write:3:error");
  const Status status = WriteMotifs(LargeMotifs(), path);
  FaultArmForTest(nullptr);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(ReadAll(path), old);
  EXPECT_FALSE(std::filesystem::exists(AtomicTmpPath(path)));
}

TEST(MotifIoFaultDeathTest, CrashBeforeRenameLeavesTheOldFile) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = TempPath("crash_motifs.txt");
  ASSERT_TRUE(WriteMotifs({MakeSquareMotif()}, path).ok());
  const std::string old = ReadAll(path);
  const std::vector<Motif> motifs = LargeMotifs();
  EXPECT_EXIT(
      {
        FaultArmForTest("atomic.pre_rename:1");
        (void)WriteMotifs(motifs, path);
      },
      ::testing::ExitedWithCode(kFaultExitCode), "");
  // The target is the old file, whole; the new bytes sit complete in the
  // tmp file, and the next write replaces both.
  EXPECT_EQ(ReadAll(path), old);
  const std::string tmp = ReadAll(AtomicTmpPath(path));
  ASSERT_TRUE(WriteMotifs(motifs, path).ok());
  EXPECT_EQ(ReadAll(path), tmp);
  EXPECT_FALSE(std::filesystem::exists(AtomicTmpPath(path)));
}

}  // namespace
}  // namespace lamo
