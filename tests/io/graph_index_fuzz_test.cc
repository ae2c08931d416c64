// Deterministic mutation fuzzing of the GraphIndex build path: 500 seeded
// mutations of a valid edge-list document (same mutation battery as
// parser_fuzz_test.cc). Corrupt documents must be answered by ReadEdgeList
// with a non-OK Status; documents that still parse must always produce an
// index that passes its structural Validate() — on both the dense-bitset
// and forced-sparse layouts — and never crash. Run under ASan via
// scripts/reproduce.sh.
#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <vector>

#include "graph/graph_index.h"
#include "io/edge_list.h"
#include "motif/esu_engine.h"
#include "synth/dataset.h"
#include "util/random.h"

namespace lamo {
namespace {

constexpr int kMutations = 500;

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

/// One seeded mutation of `seed` (the parser_fuzz_test.cc battery:
/// truncations, bit flips, line splices, huge tokens, duplicated chunks,
/// garbage bytes). Every draw comes from `rng`, so trial N is identical on
/// every run and platform.
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
    case 4: {  // duplicate a random chunk
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

TEST(GraphIndexFuzzTest, IndexBuildSurvivesMutatedEdgeLists) {
  SyntheticDatasetConfig config;
  config.num_proteins = 120;
  config.seed = 20260807;
  const SyntheticDataset dataset = BuildSyntheticDataset(config);
  const std::string path = TempPath("seed_index_graph.txt");
  ASSERT_TRUE(WriteEdgeList(dataset.ppi, path).ok());
  const std::string seed_document = ReadWholeFile(path);

  Rng rng(0x1dec5 ^ 20260807u);
  const std::string fuzz_path = TempPath("fuzz_index_graph.txt");
  size_t parsed_ok = 0;
  for (int trial = 0; trial < kMutations; ++trial) {
    const std::string mutated = Mutate(seed_document, rng);
    WriteWholeFile(fuzz_path, mutated);
    // Corrupt documents must surface as a Status from the reader — the
    // index builder itself only ever sees structurally valid Graphs.
    auto result = ReadEdgeList(fuzz_path);
    if (!result.ok()) continue;
    ++parsed_ok;
    const Graph& g = result.value();
    const GraphIndex index(g);
    EXPECT_TRUE(index.Validate().ok()) << "trial " << trial;
    const GraphIndex sparse(g, 0);
    EXPECT_TRUE(sparse.Validate().ok()) << "trial " << trial;
    // Small graphs also get an enumeration smoke: the engine must not read
    // out of bounds on whatever adjacency the mutated document produced
    // (the real assertion is ASan staying quiet).
    if (g.num_vertices() <= 64) {
      size_t count = 0;
      esu_internal::RunEsu(
          index, 3, 0, static_cast<VertexId>(g.num_vertices()),
          [&](const VertexId*, size_t) { return ++count < 10000; });
    }
  }
  // The battery is useless if every mutation fails to parse; the seeded mix
  // reliably leaves a healthy fraction of documents readable.
  EXPECT_GT(parsed_ok, 50u);

  // The unmutated document must parse and index cleanly.
  WriteWholeFile(fuzz_path, seed_document);
  auto result = ReadEdgeList(fuzz_path);
  ASSERT_TRUE(result.ok());
  const GraphIndex index(result.value());
  EXPECT_TRUE(index.Validate().ok());
  EXPECT_EQ(index.num_edges(), dataset.ppi.num_edges());
}

}  // namespace
}  // namespace lamo
