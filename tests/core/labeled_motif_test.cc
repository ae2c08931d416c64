// BuildSiteIndex, the one builder of the per-protein motif-site index (pack,
// live updates and the lms predictor), against a brute-force first-seen
// oracle.
#include "core/labeled_motif.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

namespace lamo {
namespace {

// Walks every (motif, occurrence, position) in order and appends a site to
// its protein's row unless the row already holds it anywhere.
MotifSiteIndex OracleSites(const std::vector<LabeledMotif>& motifs,
                           size_t num_vertices) {
  MotifSiteIndex index(num_vertices);
  for (uint32_t mi = 0; mi < motifs.size(); ++mi) {
    for (const std::span<const VertexId> occ : motifs[mi].occurrences) {
      for (uint32_t pos = 0; pos < occ.size(); ++pos) {
        std::vector<MotifSite>& row = index[occ[pos]];
        const MotifSite site{mi, pos};
        if (std::find(row.begin(), row.end(), site) == row.end()) {
          row.push_back(site);
        }
      }
    }
  }
  return index;
}

LabeledMotif MotifWith(size_t k,
                       const std::vector<std::vector<VertexId>>& occurrences) {
  LabeledMotif m;
  m.occurrences = OccurrenceList(k);
  for (const std::vector<VertexId>& occ : occurrences) {
    m.occurrences.push_back(occ);
  }
  return m;
}

TEST(BuildSiteIndexTest, RepeatedSitesKeepTheirFirstPlace) {
  const std::vector<LabeledMotif> motifs = {
      // Motif 0: the third occurrence repeats the first exactly, and the
      // second puts proteins 0 and 2 at each other's positions.
      MotifWith(3, {{0, 1, 2}, {2, 1, 0}, {0, 1, 2}}),
      MotifWith(2, {{1, 0}, {0, 1}, {1, 0}}),
      MotifWith(4, {}),
  };
  const MotifSiteIndex index = BuildSiteIndex(motifs, 4);
  const MotifSiteIndex expected = {
      {{0, 0}, {0, 2}, {1, 1}, {1, 0}},
      {{0, 1}, {1, 0}, {1, 1}},
      {{0, 2}, {0, 0}},
      {},
  };
  EXPECT_EQ(index, expected);
  EXPECT_EQ(index, OracleSites(motifs, 4));
}

TEST(BuildSiteIndexTest, MatchesOracleOnRandomMotifs) {
  // Few proteins and many occurrences, so most (motif, vertex) sites repeat,
  // some across motifs that interleave in a protein's row.
  std::mt19937 rng(20240611);
  for (int round = 0; round < 20; ++round) {
    const size_t num_vertices = 1 + rng() % 12;
    std::vector<LabeledMotif> motifs(rng() % 6);
    for (LabeledMotif& motif : motifs) {
      const size_t k = 2 + rng() % 4;
      motif.occurrences = OccurrenceList(k);
      const size_t count = rng() % 30;
      for (size_t o = 0; o < count; ++o) {
        for (VertexId& p : motif.occurrences.push_back_uninitialized()) {
          p = static_cast<VertexId>(rng() % num_vertices);
        }
      }
    }
    EXPECT_EQ(BuildSiteIndex(motifs, num_vertices),
              OracleSites(motifs, num_vertices))
        << "round " << round;
  }
}

}  // namespace
}  // namespace lamo
