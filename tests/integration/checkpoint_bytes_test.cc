// Pins the bytes of every pipeline stage's checkpoint: a small seeded
// dataset is mined (level-wise with uniqueness, and ESU at two sizes) and
// labeled with checkpointing on, and each stage's final `.ckpt` file must
// have the recorded size and FNV-1a 64. A codec change that moves a single
// byte of any payload fails here, not only at the next resume.
#include <gtest/gtest.h>

#include <filesystem>
#include <string>

#include "core/lamofinder.h"
#include "motif/esu_finder.h"
#include "motif/miner.h"
#include "motif/uniqueness.h"
#include "synth/dataset.h"
#include "util/atomic_io.h"
#include "util/bytes.h"
#include "util/checkpoint.h"

namespace lamo {
namespace {

struct RecordedFile {
  const char* stage;
  size_t size;
  uint64_t fnv;
};

TEST(CheckpointBytesTest, EveryStageMatchesRecordedBytes) {
  SyntheticDatasetConfig dataset_config;
  dataset_config.num_proteins = 300;
  dataset_config.go.num_terms = 60;
  dataset_config.num_templates = 2;
  dataset_config.copies_per_template = 20;
  dataset_config.informative_threshold = 8;
  dataset_config.seed = 20261019;
  const SyntheticDataset dataset = BuildSyntheticDataset(dataset_config);

  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "checkpoint_bytes";
  std::filesystem::remove_all(dir);
  CheckpointOptions checkpoint;
  checkpoint.dir = dir.string();

  MotifFindingConfig motif_config;
  motif_config.miner.min_size = 3;
  motif_config.miner.max_size = 4;
  motif_config.miner.min_frequency = 15;
  motif_config.uniqueness.num_random_networks = 3;
  motif_config.uniqueness_threshold = 0.0;
  motif_config.miner.checkpoint = checkpoint;
  const std::vector<Motif> motifs =
      FindNetworkMotifs(dataset.ppi, motif_config);
  ASSERT_FALSE(motifs.empty());

  EsuMotifConfig esu_config;
  esu_config.min_frequency = 15;
  esu_config.uniqueness.num_random_networks = 3;
  esu_config.uniqueness_threshold = -1.0;
  esu_config.checkpoint = checkpoint;
  for (const size_t size : {3, 4}) {
    esu_config.size = size;
    FindNetworkMotifsEsu(dataset.ppi, esu_config);
  }

  LaMoFinder finder(dataset.ontology, dataset.weights, dataset.informative,
                    dataset.annotations);
  LaMoFinderConfig label_config;
  label_config.sigma = 6;
  label_config.max_occurrences = 120;
  label_config.checkpoint = checkpoint;
  ASSERT_FALSE(finder.LabelAll(motifs, label_config).empty());

  // Recorded from the build before the payload decoders moved onto the
  // shared reader in util/bytes.h.
  const RecordedFile recorded[] = {
      {"mine_levels", 1407829, 0x49cc2d34e77a6b1fULL},
      {"uniqueness", 134, 0x2cc799b4bbdbb4baULL},
      {"mine_enum_3", 69793, 0xd72ab0b3b435a8ccULL},
      {"mine_uniq_3", 87, 0x11dbbf82957ed6c3ULL},
      {"mine_enum_4", 668989, 0x4f60975bed89093dULL},
      {"mine_uniq_4", 119, 0xb6c8c6cc1e9e5169ULL},
      {"label", 2407171, 0x95786286caba262cULL},
  };
  for (const RecordedFile& file : recorded) {
    std::string bytes;
    ASSERT_TRUE(
        ReadFileToString(CheckpointPath(dir.string(), file.stage), &bytes)
            .ok())
        << file.stage;
    EXPECT_EQ(bytes.size(), file.size) << file.stage;
    EXPECT_EQ(Fnv1a64(bytes), file.fnv) << file.stage;
  }
  std::filesystem::remove_all(dir);
}

// Pins the "mine_levels" payload in the three places a level can sit when
// it is saved: the last level (moved into the results), a level at or past
// min_size with one more level to grow, and a level below min_size (no
// results yet). Saving every 2nd level makes the file on disk an inner
// level's state. Resuming from each must reproduce the uninterrupted run.
TEST(CheckpointBytesTest, MinerLevelStatesMatchRecordedBytes) {
  SyntheticDatasetConfig dataset_config;
  dataset_config.num_proteins = 300;
  dataset_config.go.num_terms = 60;
  dataset_config.num_templates = 2;
  dataset_config.copies_per_template = 20;
  dataset_config.informative_threshold = 8;
  dataset_config.seed = 20261019;
  const Graph ppi = BuildSyntheticDataset(dataset_config).ppi;

  struct Case {
    size_t min_size;
    size_t max_size;
    size_t every;
    RecordedFile recorded;
  };
  // Recorded from the miner that kept a copy of each level beside the
  // results.
  const Case cases[] = {
      {2, 4, 1, {"mine_levels", 1417913, 0xb4554f58992f2243ULL}},
      {3, 5, 2, {"mine_levels", 1407829, 0xcb7e01348ac5bc7bULL}},
      {5, 5, 2, {"mine_levels", 668997, 0xb5dac97a63955685ULL}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE("min_size " + std::to_string(c.min_size) + " max_size " +
                 std::to_string(c.max_size));
    const std::filesystem::path dir =
        std::filesystem::path(::testing::TempDir()) / "miner_level_bytes";
    std::filesystem::remove_all(dir);
    MinerConfig config;
    config.min_size = c.min_size;
    config.max_size = c.max_size;
    config.min_frequency = 15;
    const std::vector<Motif> fresh = FrequentSubgraphMiner(ppi, config).Mine();
    ASSERT_FALSE(fresh.empty());

    config.checkpoint.dir = dir.string();
    config.checkpoint.every = c.every;
    const std::vector<Motif> saved = FrequentSubgraphMiner(ppi, config).Mine();
    std::string bytes;
    ASSERT_TRUE(
        ReadFileToString(CheckpointPath(dir.string(), c.recorded.stage), &bytes)
            .ok());
    EXPECT_EQ(bytes.size(), c.recorded.size);
    EXPECT_EQ(Fnv1a64(bytes), c.recorded.fnv);

    config.checkpoint.resume = true;
    const std::vector<Motif> resumed =
        FrequentSubgraphMiner(ppi, config).Mine();
    std::filesystem::remove_all(dir);
    for (const std::vector<Motif>* run : {&saved, &resumed}) {
      ASSERT_EQ(run->size(), fresh.size());
      for (size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_EQ((*run)[i].code, fresh[i].code) << "motif " << i;
        EXPECT_EQ((*run)[i].frequency, fresh[i].frequency) << "motif " << i;
        EXPECT_EQ((*run)[i].occurrences, fresh[i].occurrences) << "motif " << i;
      }
    }
  }
}

}  // namespace
}  // namespace lamo
