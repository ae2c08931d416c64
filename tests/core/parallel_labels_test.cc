#include "core/parallel_labels.h"

#include <algorithm>

#include <gtest/gtest.h>

namespace lamo {
namespace {

LabeledMotif MakeLabeled(const std::vector<uint8_t>& code,
                         std::vector<std::vector<VertexId>> occurrence_sets,
                         TermId label) {
  LabeledMotif lm;
  lm.pattern = SmallGraph(3);
  lm.pattern.AddEdge(0, 1);
  lm.pattern.AddEdge(1, 2);
  lm.code = code;
  lm.scheme.assign(3, {label});
  lm.occurrences = OccurrenceList(3);
  for (const auto& set : occurrence_sets) lm.occurrences.push_back(set);
  lm.frequency = lm.occurrences.size();
  return lm;
}

TEST(ParallelLabelsTest, FusesOverlappingBranches) {
  const std::vector<uint8_t> code{1, 2, 3};
  std::array<std::vector<LabeledMotif>, 3> per_branch;
  per_branch[0].push_back(
      MakeLabeled(code, {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}, 10));
  per_branch[2].push_back(
      MakeLabeled(code, {{0, 1, 2}, {3, 4, 5}, {9, 10, 11}}, 20));

  const auto parallel = CombineBranchLabels(per_branch, 2);
  ASSERT_EQ(parallel.size(), 1u);
  EXPECT_EQ(parallel[0].num_branches(), 2u);
  EXPECT_TRUE(parallel[0].schemes[0].has_value());
  EXPECT_FALSE(parallel[0].schemes[1].has_value());
  EXPECT_TRUE(parallel[0].schemes[2].has_value());
  EXPECT_EQ(parallel[0].frequency, 2u);  // two shared occurrence sets
}

TEST(ParallelLabelsTest, RespectsMinimumOverlap) {
  const std::vector<uint8_t> code{1};
  std::array<std::vector<LabeledMotif>, 3> per_branch;
  per_branch[0].push_back(MakeLabeled(code, {{0, 1, 2}, {3, 4, 5}}, 10));
  per_branch[1].push_back(MakeLabeled(code, {{0, 1, 2}, {9, 10, 11}}, 20));
  EXPECT_TRUE(CombineBranchLabels(per_branch, 2).empty());
  EXPECT_EQ(CombineBranchLabels(per_branch, 1).size(), 1u);
}

TEST(ParallelLabelsTest, DifferentPatternsNeverFuse) {
  std::array<std::vector<LabeledMotif>, 3> per_branch;
  per_branch[0].push_back(MakeLabeled({1}, {{0, 1, 2}}, 10));
  per_branch[1].push_back(MakeLabeled({2}, {{0, 1, 2}}, 20));
  EXPECT_TRUE(CombineBranchLabels(per_branch, 1).empty());
}

TEST(ParallelLabelsTest, SymmetricAlignmentOfOccurrenceSets) {
  // Occurrences listed in different vertex orders still overlap (the
  // comparison is by sorted vertex set).
  const std::vector<uint8_t> code{1};
  std::array<std::vector<LabeledMotif>, 3> per_branch;
  per_branch[0].push_back(MakeLabeled(code, {{2, 1, 0}}, 10));
  per_branch[1].push_back(MakeLabeled(code, {{0, 2, 1}}, 20));
  const auto parallel = CombineBranchLabels(per_branch, 1);
  ASSERT_EQ(parallel.size(), 1u);
  EXPECT_EQ(parallel[0].frequency, 1u);
  // Output keeps the seed branch's alignment.
  EXPECT_TRUE(std::ranges::equal(parallel[0].occurrences[0],
                                 std::vector<VertexId>{2, 1, 0}));
}

TEST(ParallelLabelsTest, ThreeBranchFusion) {
  const std::vector<uint8_t> code{7};
  std::array<std::vector<LabeledMotif>, 3> per_branch;
  per_branch[0].push_back(MakeLabeled(code, {{0, 1, 2}, {3, 4, 5}}, 1));
  per_branch[1].push_back(MakeLabeled(code, {{0, 1, 2}, {3, 4, 5}}, 2));
  per_branch[2].push_back(MakeLabeled(code, {{0, 1, 2}}, 3));
  const auto parallel = CombineBranchLabels(per_branch, 1);
  ASSERT_FALSE(parallel.empty());
  EXPECT_EQ(parallel[0].num_branches(), 3u);
  EXPECT_EQ(parallel[0].frequency, 1u);  // the triple intersection
}

TEST(ParallelLabelsTest, OrderedByFrequency) {
  const std::vector<uint8_t> code{1};
  std::array<std::vector<LabeledMotif>, 3> per_branch;
  per_branch[0].push_back(MakeLabeled(code, {{0, 1, 2}}, 10));
  per_branch[0].push_back(
      MakeLabeled(code, {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}, 11));
  per_branch[1].push_back(
      MakeLabeled(code, {{0, 1, 2}, {3, 4, 5}, {6, 7, 8}}, 20));
  const auto parallel = CombineBranchLabels(per_branch, 1);
  ASSERT_GE(parallel.size(), 2u);
  EXPECT_GE(parallel[0].frequency, parallel[1].frequency);
}

}  // namespace
}  // namespace lamo
