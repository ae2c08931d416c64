// Checkpoint payload codecs: Encode/Decode round-trips for SmallGraph,
// Motif and LabeledMotif over randomized instances, plus rejection of
// malformed byte streams (every prefix truncation must fail cleanly).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/labeled_motif.h"
#include "motif/motif.h"
#include "util/random.h"

namespace lamo {
namespace {

SmallGraph RandomPattern(Rng& rng) {
  const size_t n = 2 + rng.Uniform(SmallGraph::kMaxVertices - 1);
  SmallGraph g(n);
  // A path keeps it connected; extra random edges vary the shape.
  for (size_t v = 1; v < n; ++v) g.AddEdge(v - 1, v);
  const size_t extra = rng.Uniform(n);
  for (size_t i = 0; i < extra; ++i) {
    const uint32_t a = static_cast<uint32_t>(rng.Uniform(n));
    const uint32_t b = static_cast<uint32_t>(rng.Uniform(n));
    if (a != b) g.AddEdge(a, b);
  }
  return g;
}

Motif RandomMotif(Rng& rng) {
  Motif m;
  m.pattern = RandomPattern(rng);
  const size_t n = m.pattern.num_vertices();
  const size_t code_len = rng.Uniform(16);
  for (size_t i = 0; i < code_len; ++i) {
    m.code.push_back(static_cast<uint8_t>(rng.Uniform(256)));
  }
  const size_t occs = rng.Uniform(8);
  m.occurrences = OccurrenceList(n);
  for (size_t i = 0; i < occs; ++i) {
    for (VertexId& v : m.occurrences.push_back_uninitialized()) {
      v = static_cast<VertexId>(rng.Uniform(10000));
    }
  }
  m.frequency = static_cast<size_t>(rng.Uniform(1000));
  m.uniqueness = rng.NextDouble();
  if (rng.Bernoulli(0.3)) {
    m.symmetric_sets_override.push_back(
        {0, static_cast<uint32_t>(n - 1)});
  }
  return m;
}

void ExpectSameMotif(const Motif& a, const Motif& b) {
  EXPECT_EQ(a.pattern.num_vertices(), b.pattern.num_vertices());
  for (size_t u = 0; u < a.pattern.num_vertices(); ++u) {
    for (size_t v = 0; v < a.pattern.num_vertices(); ++v) {
      EXPECT_EQ(a.pattern.HasEdge(u, v), b.pattern.HasEdge(u, v));
    }
  }
  EXPECT_EQ(a.code, b.code);
  EXPECT_EQ(a.occurrences, b.occurrences);
  EXPECT_EQ(a.frequency, b.frequency);
  EXPECT_EQ(a.uniqueness, b.uniqueness);
  EXPECT_EQ(a.symmetric_sets_override, b.symmetric_sets_override);
}

TEST(MotifCodecTest, RoundTripsRandomMotifs) {
  Rng rng(7);
  for (int trial = 0; trial < 100; ++trial) {
    const Motif original = RandomMotif(rng);
    ByteWriter writer;
    EncodeMotif(original, &writer);
    ByteReader reader(writer.bytes());
    Motif decoded;
    ASSERT_TRUE(DecodeMotif(&reader, &decoded).ok()) << "trial " << trial;
    EXPECT_TRUE(reader.AtEnd());
    ExpectSameMotif(original, decoded);
  }
}

TEST(MotifCodecTest, EveryTruncationIsRejected) {
  Rng rng(8);
  const Motif original = RandomMotif(rng);
  ByteWriter writer;
  EncodeMotif(original, &writer);
  const std::string bytes = writer.bytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    ByteReader reader(std::string_view(bytes).substr(0, len));
    Motif decoded;
    EXPECT_FALSE(DecodeMotif(&reader, &decoded).ok())
        << "accepted truncation to " << len << " of " << bytes.size();
  }
}

TEST(MotifCodecTest, OversizedVertexCountIsRejected) {
  ByteWriter writer;
  writer.PutU32(1000);  // way past kMaxVertices
  writer.PutU32(0);
  ByteReader reader(writer.bytes());
  SmallGraph g;
  EXPECT_FALSE(DecodeSmallGraph(&reader, &g).ok());
}

LabeledMotif RandomLabeledMotif(Rng& rng) {
  LabeledMotif m;
  m.pattern = RandomPattern(rng);
  const size_t n = m.pattern.num_vertices();
  const size_t code_len = rng.Uniform(16);
  for (size_t i = 0; i < code_len; ++i) {
    m.code.push_back(static_cast<uint8_t>(rng.Uniform(256)));
  }
  m.scheme.resize(n);
  for (LabelSet& set : m.scheme) {
    const size_t labels = rng.Uniform(4);
    for (size_t i = 0; i < labels; ++i) {
      set.push_back(static_cast<TermId>(rng.Uniform(500)));
    }
  }
  const size_t occs = rng.Uniform(6);
  m.occurrences = OccurrenceList(n);
  for (size_t i = 0; i < occs; ++i) {
    for (VertexId& v : m.occurrences.push_back_uninitialized()) {
      v = static_cast<VertexId>(rng.Uniform(10000));
    }
  }
  m.frequency = m.occurrences.size();
  m.uniqueness = rng.NextDouble();
  m.strength = rng.NextDouble();
  return m;
}

TEST(LabeledMotifCodecTest, RoundTripsRandomLabeledMotifs) {
  Rng rng(9);
  for (int trial = 0; trial < 100; ++trial) {
    const LabeledMotif original = RandomLabeledMotif(rng);
    ByteWriter writer;
    EncodeLabeledMotif(original, &writer);
    ByteReader reader(writer.bytes());
    LabeledMotif decoded;
    ASSERT_TRUE(DecodeLabeledMotif(&reader, &decoded).ok())
        << "trial " << trial;
    EXPECT_TRUE(reader.AtEnd());
    EXPECT_EQ(original.code, decoded.code);
    EXPECT_EQ(original.scheme, decoded.scheme);
    EXPECT_EQ(original.occurrences, decoded.occurrences);
    EXPECT_EQ(original.frequency, decoded.frequency);
    EXPECT_EQ(original.uniqueness, decoded.uniqueness);
    EXPECT_EQ(original.strength, decoded.strength);
  }
}

TEST(LabeledMotifCodecTest, EveryTruncationIsRejected) {
  Rng rng(10);
  const LabeledMotif original = RandomLabeledMotif(rng);
  ByteWriter writer;
  EncodeLabeledMotif(original, &writer);
  const std::string bytes = writer.bytes();
  for (size_t len = 0; len < bytes.size(); ++len) {
    ByteReader reader(std::string_view(bytes).substr(0, len));
    LabeledMotif decoded;
    EXPECT_FALSE(DecodeLabeledMotif(&reader, &decoded).ok())
        << "accepted truncation to " << len << " of " << bytes.size();
  }
}

}  // namespace
}  // namespace lamo
