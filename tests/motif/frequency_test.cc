#include "motif/frequency.h"

#include <gtest/gtest.h>

namespace lamo {
namespace {

Motif TriangleMotifWithOccurrences(
    std::vector<std::vector<VertexId>> occurrence_sets) {
  Motif m;
  m.pattern = SmallGraph(3);
  m.pattern.AddEdge(0, 1);
  m.pattern.AddEdge(1, 2);
  m.pattern.AddEdge(0, 2);
  m.occurrences = OccurrenceList(3);
  for (const auto& set : occurrence_sets) m.occurrences.push_back(set);
  m.frequency = m.occurrences.size();
  return m;
}

TEST(FrequencyTest, DisjointOccurrencesAgreeAcrossMeasures) {
  const Motif m =
      TriangleMotifWithOccurrences({{0, 1, 2}, {3, 4, 5}, {6, 7, 8}});
  EXPECT_EQ(Frequency(m, FrequencyMeasure::kF1AllOccurrences), 3u);
  EXPECT_EQ(Frequency(m, FrequencyMeasure::kF2EdgeDisjoint), 3u);
  EXPECT_EQ(Frequency(m, FrequencyMeasure::kF3VertexDisjoint), 3u);
}

TEST(FrequencyTest, SharedVertexCountsForF2NotF3) {
  // Two triangles sharing exactly one vertex: vertex-disjointness rejects
  // the second; edge-disjointness keeps both.
  const Motif m = TriangleMotifWithOccurrences({{0, 1, 2}, {2, 3, 4}});
  EXPECT_EQ(Frequency(m, FrequencyMeasure::kF1AllOccurrences), 2u);
  EXPECT_EQ(Frequency(m, FrequencyMeasure::kF2EdgeDisjoint), 2u);
  EXPECT_EQ(Frequency(m, FrequencyMeasure::kF3VertexDisjoint), 1u);
}

TEST(FrequencyTest, SharedEdgeRejectedByF2) {
  // Triangles {0,1,2} and {0,1,3} share the edge 0-1.
  const Motif m = TriangleMotifWithOccurrences({{0, 1, 2}, {0, 1, 3}});
  EXPECT_EQ(Frequency(m, FrequencyMeasure::kF2EdgeDisjoint), 1u);
  EXPECT_EQ(Frequency(m, FrequencyMeasure::kF3VertexDisjoint), 1u);
}

TEST(FrequencyTest, EdgeDisjointnessUsesMappedPatternEdges) {
  // A path pattern 0-1-2: occurrences (0,1,2) and (2,1,0)... same mapped
  // edges; but (0,1,2) and (3,1,2)? mapped edges {0-1,1-2} vs {3-1,1-2}
  // share 1-2.
  Motif m;
  m.pattern = SmallGraph(3);
  m.pattern.AddEdge(0, 1);
  m.pattern.AddEdge(1, 2);
  m.occurrences = OccurrenceList(3);
  m.occurrences.push_back({0, 1, 2});
  m.occurrences.push_back({3, 1, 2});
  EXPECT_EQ(Frequency(m, FrequencyMeasure::kF2EdgeDisjoint), 1u);
  // But (0,1,2) and (2,3,4) share only vertex 2 and no edge.
  m.occurrences.erase(1);
  m.occurrences.push_back({2, 3, 4});
  EXPECT_EQ(Frequency(m, FrequencyMeasure::kF2EdgeDisjoint), 2u);
  EXPECT_EQ(Frequency(m, FrequencyMeasure::kF3VertexDisjoint), 1u);
}

TEST(FrequencyTest, MonotoneOrdering) {
  // F3 <= F2 <= F1 always.
  const Motif m = TriangleMotifWithOccurrences(
      {{0, 1, 2}, {2, 3, 4}, {0, 1, 5}, {6, 7, 8}, {8, 9, 0}});
  const size_t f1 = Frequency(m, FrequencyMeasure::kF1AllOccurrences);
  const size_t f2 = Frequency(m, FrequencyMeasure::kF2EdgeDisjoint);
  const size_t f3 = Frequency(m, FrequencyMeasure::kF3VertexDisjoint);
  EXPECT_LE(f3, f2);
  EXPECT_LE(f2, f1);
}

TEST(FrequencyTest, EmptyOccurrences) {
  Motif m;
  m.pattern = SmallGraph(3);
  EXPECT_EQ(Frequency(m, FrequencyMeasure::kF2EdgeDisjoint), 0u);
  EXPECT_EQ(Frequency(m, FrequencyMeasure::kF3VertexDisjoint), 0u);
}

}  // namespace
}  // namespace lamo
