// Deterministic mutation fuzzing of every text reader in src/io. Each
// reader gets a valid seed document and 500 seeded mutations — truncations,
// bit flips, line splices, huge tokens — and must answer every one with a
// Status (ok or not), never a crash, hang, or unbounded allocation. Run
// under ASan via scripts/reproduce.sh.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "io/edge_list.h"
#include "io/gaf.h"
#include "io/motif_io.h"
#include "io/obo.h"
#include "synth/dataset.h"
#include "util/random.h"

namespace lamo {
namespace {

constexpr int kMutationsPerReader = 500;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteWholeFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// One seeded mutation of `seed`: the mutation kind and every position are
/// drawn from `rng`, so trial N is identical on every run and platform.
std::string Mutate(const std::string& seed, Rng& rng) {
  std::string doc = seed;
  switch (rng.Uniform(6)) {
    case 0:  // truncation at a random byte
      doc.resize(rng.Uniform(doc.size() + 1));
      break;
    case 1: {  // bit flips at up to 8 random positions
      const size_t flips = 1 + rng.Uniform(8);
      for (size_t i = 0; i < flips && !doc.empty(); ++i) {
        const size_t pos = rng.Uniform(doc.size());
        doc[pos] = static_cast<char>(doc[pos] ^ (1u << rng.Uniform(8)));
      }
      break;
    }
    case 2: {  // splice: move a random line to a random other position
      std::vector<std::string> lines;
      size_t start = 0;
      while (start <= doc.size()) {
        const size_t nl = doc.find('\n', start);
        if (nl == std::string::npos) {
          lines.push_back(doc.substr(start));
          break;
        }
        lines.push_back(doc.substr(start, nl - start));
        start = nl + 1;
      }
      if (lines.size() > 1) {
        const size_t from = rng.Uniform(lines.size());
        std::string moved = lines[from];
        lines.erase(lines.begin() + from);
        lines.insert(lines.begin() + rng.Uniform(lines.size() + 1),
                     std::move(moved));
      }
      doc.clear();
      for (size_t i = 0; i < lines.size(); ++i) {
        if (i > 0) doc += '\n';
        doc += lines[i];
      }
      break;
    }
    case 3: {  // huge token injected at a random position
      const std::string token(1 + rng.Uniform(100000),
                              "0123456789ee+-."[rng.Uniform(15)]);
      doc.insert(rng.Uniform(doc.size() + 1), token);
      break;
    }
    case 4: {  // duplicate a random chunk (repeated headers, repeated rows)
      const size_t pos = rng.Uniform(doc.size() + 1);
      const size_t len = rng.Uniform(doc.size() - pos + 1);
      doc.insert(pos, doc.substr(pos, len));
      break;
    }
    default: {  // random garbage bytes (NULs, high bit, control chars)
      const size_t n = 1 + rng.Uniform(64);
      std::string garbage;
      for (size_t i = 0; i < n; ++i) {
        garbage.push_back(static_cast<char>(rng.Uniform(256)));
      }
      doc.insert(rng.Uniform(doc.size() + 1), garbage);
      break;
    }
  }
  return doc;
}

/// Runs the full mutation battery for one reader. `parse` must swallow the
/// path and return whether the reader survived (it always does unless it
/// crashes the process — the EXPECT is documentation; the real assertion is
/// that the loop finishes under ASan).
void FuzzReader(const std::string& name, const std::string& seed_document,
                const std::function<void(const std::string&)>& parse) {
  Rng rng(std::hash<std::string>{}(name) ^ 0x5eed);
  const std::string path = TempPath("fuzz_" + name);
  for (int trial = 0; trial < kMutationsPerReader; ++trial) {
    const std::string mutated = Mutate(seed_document, rng);
    WriteWholeFile(path, mutated);
    parse(path);  // must return, whatever the Status
  }
  // The unmutated document must still parse, proving the seed exercised the
  // reader's happy path and not just its error returns.
  WriteWholeFile(path, seed_document);
  parse(path);
}

/// One small pipeline's worth of valid documents to mutate.
struct FuzzFixture {
  FuzzFixture() {
    SyntheticDatasetConfig config;
    config.num_proteins = 120;
    config.seed = 20260806;
    dataset = BuildSyntheticDataset(config);
  }
  SyntheticDataset dataset;
};

FuzzFixture& Fixture() {
  static FuzzFixture* fixture = new FuzzFixture();
  return *fixture;
}

TEST(ParserFuzzTest, EdgeListReaderNeverCrashes) {
  const std::string path = TempPath("seed_graph.txt");
  ASSERT_TRUE(WriteEdgeList(Fixture().dataset.ppi, path).ok());
  FuzzReader("edge_list", ReadWholeFile(path), [](const std::string& p) {
    auto result = ReadEdgeList(p);
    (void)result;
  });
}

TEST(ParserFuzzTest, OboReaderNeverCrashes) {
  const std::string path = TempPath("seed_onto.obo");
  ASSERT_TRUE(WriteObo(Fixture().dataset.ontology, path).ok());
  FuzzReader("obo", ReadWholeFile(path), [](const std::string& p) {
    auto result = ReadObo(p);
    (void)result;
  });
}

TEST(ParserFuzzTest, AnnotationReaderNeverCrashes) {
  const FuzzFixture& fixture = Fixture();
  const std::string path = TempPath("seed_annotations.tsv");
  ASSERT_TRUE(WriteAnnotations(fixture.dataset.annotations,
                               fixture.dataset.ontology, path)
                  .ok());
  FuzzReader("gaf", ReadWholeFile(path), [&fixture](const std::string& p) {
    auto result = ReadAnnotations(p, fixture.dataset.ontology);
    (void)result;
  });
}

TEST(ParserFuzzTest, MotifReaderNeverCrashes) {
  // A couple of handwritten motifs in the documented format keep this
  // independent of the miner.
  Motif triangle;
  triangle.pattern = SmallGraph(3);
  triangle.pattern.AddEdge(0, 1);
  triangle.pattern.AddEdge(1, 2);
  triangle.pattern.AddEdge(0, 2);
  triangle.occurrences = OccurrenceList(3);
  triangle.occurrences.push_back({0, 1, 2});
  triangle.occurrences.push_back({3, 4, 5});
  triangle.frequency = 2;
  triangle.uniqueness = 0.9;
  Motif path3;
  path3.pattern = SmallGraph(3);
  path3.pattern.AddEdge(0, 1);
  path3.pattern.AddEdge(1, 2);
  path3.occurrences = OccurrenceList(3);
  path3.occurrences.push_back({7, 8, 9});
  path3.frequency = 1;
  path3.uniqueness = 0.5;

  const std::string path = TempPath("seed_motifs.txt");
  ASSERT_TRUE(WriteMotifs({triangle, path3}, path).ok());
  FuzzReader("motifs", ReadWholeFile(path), [](const std::string& p) {
    auto result = ReadMotifs(p);
    (void)result;
  });
}

}  // namespace
}  // namespace lamo
