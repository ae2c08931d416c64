// Exhaustive validation of canonical labeling: over *every* graph on small
// vertex counts, the canonical code must induce exactly the isomorphism
// partition — equal codes iff isomorphic. (The code is not required to be
// the lexicographic minimum over all n! relabelings: like nauty, the search
// only considers refinement-compatible orderings, which is sound for class
// identification and is what the exhaustive bijection below certifies.)
#include <algorithm>
#include <map>
#include <numeric>

#include <gtest/gtest.h>

#include "graph/canonical.h"
#include "graph/small_digraph.h"
#include "motif/canon_cache.h"

namespace lamo {
namespace {

// Ground-truth class id: the minimum adjacency code over all relabelings.
std::vector<uint8_t> BruteForceClassId(const SmallGraph& g) {
  const size_t n = g.num_vertices();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<uint8_t> best;
  do {
    std::vector<uint8_t> code = g.Permuted(perm).AdjacencyCode();
    if (best.empty() || code < best) best = std::move(code);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

class ExhaustiveCanonical : public ::testing::TestWithParam<size_t> {};

TEST_P(ExhaustiveCanonical, PartitionMatchesBruteForce) {
  const size_t n = GetParam();
  const size_t num_edges = n * (n - 1) / 2;
  std::map<std::vector<uint8_t>, std::vector<uint8_t>> truth_to_ours;
  std::map<std::vector<uint8_t>, std::vector<uint8_t>> ours_to_truth;
  for (uint32_t mask = 0; mask < (1u << num_edges); ++mask) {
    const SmallGraph g = SharedCanonCache::UnpackBits(mask, n);
    const auto ours = CanonicalCode(g);
    const auto truth = BruteForceClassId(g);
    // Same truth class must always map to the same code of ours, and vice
    // versa (codes must neither split nor merge isomorphism classes).
    auto [it1, inserted1] = truth_to_ours.emplace(truth, ours);
    EXPECT_EQ(it1->second, ours) << "class split: n=" << n << " mask=" << mask;
    auto [it2, inserted2] = ours_to_truth.emplace(ours, truth);
    EXPECT_EQ(it2->second, truth)
        << "class merged: n=" << n << " mask=" << mask;
  }
  EXPECT_EQ(truth_to_ours.size(), ours_to_truth.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExhaustiveCanonical,
                         ::testing::Values(2, 3, 4, 5));

SmallDigraph DigraphFromMask(size_t n, uint32_t mask) {
  SmallDigraph g(n);
  size_t bit = 0;
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = 0; j < n; ++j) {
      if (i == j) continue;
      if ((mask >> bit) & 1u) g.AddArc(i, j);
      ++bit;
    }
  }
  return g;
}

std::vector<uint8_t> BruteForceDirectedClassId(const SmallDigraph& g) {
  const size_t n = g.num_vertices();
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  std::vector<uint8_t> best;
  do {
    std::vector<uint8_t> code = g.Permuted(perm).AdjacencyCode();
    if (best.empty() || code < best) best = std::move(code);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

class ExhaustiveDirectedCanonical : public ::testing::TestWithParam<size_t> {
};

TEST_P(ExhaustiveDirectedCanonical, PartitionMatchesBruteForce) {
  const size_t n = GetParam();
  const size_t num_arcs = n * (n - 1);
  std::map<std::vector<uint8_t>, std::vector<uint8_t>> truth_to_ours;
  std::map<std::vector<uint8_t>, std::vector<uint8_t>> ours_to_truth;
  for (uint32_t mask = 0; mask < (1u << num_arcs); ++mask) {
    const SmallDigraph g = DigraphFromMask(n, mask);
    const auto ours = DirectedCanonicalCode(g);
    const auto truth = BruteForceDirectedClassId(g);
    auto [it1, inserted1] = truth_to_ours.emplace(truth, ours);
    ASSERT_EQ(it1->second, ours) << "class split: n=" << n
                                 << " mask=" << mask;
    auto [it2, inserted2] = ours_to_truth.emplace(ours, truth);
    ASSERT_EQ(it2->second, truth)
        << "class merged: n=" << n << " mask=" << mask;
  }
  EXPECT_EQ(truth_to_ours.size(), ours_to_truth.size());
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExhaustiveDirectedCanonical,
                         ::testing::Values(2, 3));

TEST(ExhaustiveDirectedCanonicalHeavy, AllFourVertexDigraphs) {
  // 2^12 = 4096 digraphs on 4 vertices: the directed partition must have
  // exactly 218 classes (OEIS A000273: digraphs on 4 nodes).
  std::map<std::vector<uint8_t>, std::vector<uint8_t>> truth_to_ours;
  std::map<std::vector<uint8_t>, std::vector<uint8_t>> ours_to_truth;
  for (uint32_t mask = 0; mask < (1u << 12); ++mask) {
    const SmallDigraph g = DigraphFromMask(4, mask);
    const auto ours = DirectedCanonicalCode(g);
    const auto truth = BruteForceDirectedClassId(g);
    auto [it1, inserted1] = truth_to_ours.emplace(truth, ours);
    ASSERT_EQ(it1->second, ours) << "mask=" << mask;
    auto [it2, inserted2] = ours_to_truth.emplace(ours, truth);
    ASSERT_EQ(it2->second, truth) << "mask=" << mask;
  }
  EXPECT_EQ(truth_to_ours.size(), 218u);
}

TEST(ExhaustiveCanonicalCounts, KnownGraphCounts) {
  // Numbers of non-isomorphic simple graphs (OEIS A000088): 4 -> 11,
  // 5 -> 34.
  for (const auto& [n, expected] :
       std::vector<std::pair<size_t, size_t>>{{4, 11}, {5, 34}}) {
    std::set<std::vector<uint8_t>> classes;
    const size_t num_edges = n * (n - 1) / 2;
    for (uint32_t mask = 0; mask < (1u << num_edges); ++mask) {
      classes.insert(CanonicalCode(SharedCanonCache::UnpackBits(mask, n)));
    }
    EXPECT_EQ(classes.size(), expected) << "n=" << n;
  }
}

}  // namespace
}  // namespace lamo
