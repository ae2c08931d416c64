// Snapshot codec tests: lossless roundtrip of every packed artifact,
// byte-reproducible encoding, and the corruption matrix — truncated files,
// wrong magic, unsupported versions, checksum mismatches and
// checksum-valid-but-inconsistent bodies must all yield a Status error (never
// a crash).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "parallel/parallel_for.h"
#include "predict/gds.h"
#include "serve/snapshot.h"
#include "util/bytes.h"
#include "serve_test_util.h"

namespace lamo {
namespace {

// FNV-1a 64 with the legacy basis: the version-3 seal, and the hash the
// recorded-bytes test pins the encoding with.
uint64_t LegacyFnv(std::string_view bytes) {
  return Fnv1a64(bytes, kFnvLegacyBasis);
}

// Rewrites the trailing 8 bytes with `seal`.
void WriteSeal(std::string* bytes, uint64_t seal) {
  const size_t body = bytes->size() - 8;
  for (int i = 0; i < 8; ++i) {
    (*bytes)[body + i] = static_cast<char>((seal >> (8 * i)) & 0xff);
  }
}

// Recomputes the seal over bytes[0, size-8), so corruption tests can patch
// a body byte and still reach the structural validators behind the
// checksum gate.
void Reseal(std::string* bytes) {
  WriteSeal(bytes, SealHash(std::string_view(*bytes).substr(
                       0, bytes->size() - 8)));
}

class SnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    encoded_ = new std::string(EncodeSnapshot(TestSnapshot()));
  }
  static void TearDownTestSuite() {
    delete encoded_;
    encoded_ = nullptr;
  }
  static std::string* encoded_;
};

std::string* SnapshotTest::encoded_ = nullptr;

TEST_F(SnapshotTest, FixtureIsNontrivial) {
  const Snapshot& snapshot = TestSnapshot();
  EXPECT_GT(snapshot.graph.num_vertices(), 0u);
  EXPECT_GT(snapshot.ontology.num_terms(), 0u);
  ASSERT_FALSE(snapshot.motifs.empty())
      << "fixture must mine at least one labeled motif";
  EXPECT_FALSE(snapshot.categories.empty());
  EXPECT_EQ(snapshot.sites.size(), snapshot.graph.num_vertices());
  EXPECT_EQ(snapshot.protein_categories.size(),
            snapshot.graph.num_vertices());
}

TEST_F(SnapshotTest, EncodingIsByteReproducible) {
  EXPECT_EQ(*encoded_, EncodeSnapshot(TestSnapshot()));
}

// Size and hashes (LegacyFnv above) of the fixture's encoding. The size
// and the hash of bytes [12, size-8) -- everything between the version word
// and the seal -- were recorded from the version-3 build: version 4 moved
// only the version and the seal. The whole-file hash pins those too.
TEST_F(SnapshotTest, EncodingMatchesRecordedBytes) {
  EXPECT_EQ(encoded_->size(), 675427u);
  EXPECT_EQ(LegacyFnv(std::string_view(*encoded_).substr(
                12, encoded_->size() - 20)),
            0xe57e832c7fdc3015ULL);
  EXPECT_EQ(LegacyFnv(*encoded_), 0xd538057037a573b9ULL);
}

TEST_F(SnapshotTest, RoundTripPreservesEverything) {
  const Snapshot& original = TestSnapshot();
  auto decoded = DecodeSnapshot(*encoded_);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();

  // Graph: same vertices, edges, adjacency.
  ASSERT_EQ(decoded->graph.num_vertices(), original.graph.num_vertices());
  ASSERT_EQ(decoded->graph.num_edges(), original.graph.num_edges());
  for (ProteinId v = 0; v < original.graph.num_vertices(); ++v) {
    const auto a = original.graph.Neighbors(v);
    const auto b = decoded->graph.Neighbors(v);
    ASSERT_EQ(std::vector<VertexId>(a.begin(), a.end()),
              std::vector<VertexId>(b.begin(), b.end()))
        << "vertex " << v;
  }

  // Ontology: names, structure, closures (exercise IsAncestorOrEqual).
  ASSERT_EQ(decoded->ontology.num_terms(), original.ontology.num_terms());
  for (TermId t = 0; t < original.ontology.num_terms(); ++t) {
    EXPECT_EQ(decoded->ontology.TermName(t), original.ontology.TermName(t));
    EXPECT_EQ(decoded->ontology.Depth(t), original.ontology.Depth(t));
  }
  ASSERT_EQ(decoded->ontology.Roots(), original.ontology.Roots());
  const TermId root = original.ontology.Roots()[0];
  for (TermId t = 0; t < original.ontology.num_terms(); ++t) {
    EXPECT_EQ(decoded->ontology.IsAncestorOrEqual(root, t),
              original.ontology.IsAncestorOrEqual(root, t));
  }

  // Annotations, weights, informative flags.
  for (ProteinId p = 0; p < original.graph.num_vertices(); ++p) {
    const auto a = original.annotations.TermsOf(p);
    const auto b = decoded->annotations.TermsOf(p);
    ASSERT_EQ(std::vector<TermId>(a.begin(), a.end()),
              std::vector<TermId>(b.begin(), b.end()))
        << "protein " << p;
  }
  for (TermId t = 0; t < original.ontology.num_terms(); ++t) {
    EXPECT_DOUBLE_EQ(decoded->weights.Weight(t), original.weights.Weight(t));
    EXPECT_DOUBLE_EQ(decoded->weights.LogWeight(t),
                     original.weights.LogWeight(t));
    EXPECT_EQ(decoded->informative.IsInformative(t),
              original.informative.IsInformative(t));
    EXPECT_EQ(decoded->informative.IsBorderInformative(t),
              original.informative.IsBorderInformative(t));
    EXPECT_EQ(decoded->informative.IsLabelCandidate(t),
              original.informative.IsLabelCandidate(t));
  }
  EXPECT_EQ(decoded->informative.BorderInformative(),
            original.informative.BorderInformative());

  // Labeled motifs, site index and prediction context.
  ASSERT_EQ(decoded->motifs.size(), original.motifs.size());
  for (size_t m = 0; m < original.motifs.size(); ++m) {
    const LabeledMotif& a = original.motifs[m];
    const LabeledMotif& b = decoded->motifs[m];
    EXPECT_EQ(b.frequency, a.frequency);
    EXPECT_DOUBLE_EQ(b.uniqueness, a.uniqueness);
    EXPECT_DOUBLE_EQ(b.strength, a.strength);
    EXPECT_EQ(b.scheme, a.scheme);
    EXPECT_EQ(b.pattern.num_vertices(), a.pattern.num_vertices());
    EXPECT_EQ(b.occurrences, a.occurrences);
  }
  EXPECT_EQ(decoded->sites.size(), original.sites.size());
  for (size_t p = 0; p < original.sites.size(); ++p) {
    EXPECT_EQ(decoded->sites[p], original.sites[p]) << "protein " << p;
  }
  EXPECT_EQ(decoded->categories, original.categories);
  EXPECT_EQ(decoded->protein_categories, original.protein_categories);

  // Predictor section: the precomputed GDS signature and role vector
  // matrices survive byte-for-byte.
  EXPECT_EQ(decoded->gds_signatures, original.gds_signatures);
  EXPECT_EQ(decoded->role_dim, original.role_dim);
  EXPECT_EQ(decoded->role_vectors, original.role_vectors);
}

TEST_F(SnapshotTest, PredictorSectionIsNontrivial) {
  const Snapshot& snapshot = TestSnapshot();
  ASSERT_EQ(snapshot.gds_signatures.size(),
            snapshot.graph.num_vertices() * kGdsOrbits);
  ASSERT_GT(snapshot.role_dim, 0u);
  ASSERT_EQ(snapshot.role_vectors.size(),
            snapshot.graph.num_vertices() * snapshot.role_dim);
  // A real network produces nonzero orbit counts and role features.
  uint64_t signature_sum = 0;
  for (const uint64_t cell : snapshot.gds_signatures) signature_sum += cell;
  EXPECT_GT(signature_sum, 0u);
}

TEST_F(SnapshotTest, ShardsKeepTheFullPredictorSection) {
  // Scoring must be identical on every shard, so the precomputed matrices
  // are never sliced by ownership.
  const Snapshot shard = MakeShard(TestSnapshot(), 1, 2);
  EXPECT_EQ(shard.gds_signatures, TestSnapshot().gds_signatures);
  EXPECT_EQ(shard.role_dim, TestSnapshot().role_dim);
  EXPECT_EQ(shard.role_vectors, TestSnapshot().role_vectors);
}

TEST_F(SnapshotTest, FileRoundTrip) {
  const std::string path = ::testing::TempDir() + "/roundtrip.lamosnap";
  ASSERT_TRUE(WriteSnapshot(TestSnapshot(), path).ok());
  auto loaded = ReadSnapshot(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(EncodeSnapshot(*loaded), *encoded_);
  std::remove(path.c_str());
}

TEST_F(SnapshotTest, ReadMissingFileFails) {
  const auto result = ReadSnapshot(::testing::TempDir() + "/no-such.lamosnap");
  EXPECT_FALSE(result.ok());
}

// ---- corruption matrix -----------------------------------------------------

TEST_F(SnapshotTest, RejectsEmptyAndShortInputs) {
  EXPECT_FALSE(DecodeSnapshot("").ok());
  EXPECT_FALSE(DecodeSnapshot("LAMO").ok());
  EXPECT_FALSE(DecodeSnapshot(std::string(12, '\0')).ok());
  EXPECT_FALSE(DecodeSnapshot(encoded_->substr(0, 19)).ok());
}

TEST_F(SnapshotTest, RejectsBadMagic) {
  std::string bytes = *encoded_;
  bytes[0] = 'X';
  const auto result = DecodeSnapshot(bytes);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("magic"), std::string::npos)
      << result.status().ToString();
}

TEST_F(SnapshotTest, RejectsUnsupportedVersion) {
  // Both a future format and the previous one (version 3): this build reads
  // kSnapshotVersion only.
  for (const uint32_t bad : {kSnapshotVersion + 1, kSnapshotVersion - 1}) {
    std::string bytes = *encoded_;
    bytes[8] = static_cast<char>(bad);  // u32 LE low byte
    Reseal(&bytes);  // valid checksum: must fail on the version, not the seal
    const auto result = DecodeSnapshot(bytes);
    ASSERT_FALSE(result.ok()) << "version " << bad;
    EXPECT_NE(result.status().message().find("version"), std::string::npos)
        << result.status().ToString();
  }
}

TEST_F(SnapshotTest, NamesTheVersionOfAVersion3File) {
  // A version-3 file is sealed with FNV-1a: it is reported as the old
  // version it is, not as a damaged file.
  std::string v3 = *encoded_;
  v3[8] = 3;
  WriteSeal(&v3, LegacyFnv(std::string_view(v3).substr(0, v3.size() - 8)));
  const auto old = DecodeSnapshot(v3);
  ASSERT_FALSE(old.ok());
  EXPECT_EQ(old.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(old.status().message(),
            "unsupported snapshot version 3 (this build reads version 4; "
            "repack with `lamo pack`)");

  // Damage under a version-3 FNV seal is still damage.
  v3[100] = static_cast<char>(v3[100] ^ 0x01);
  const auto damaged = DecodeSnapshot(v3);
  ASSERT_FALSE(damaged.ok());
  EXPECT_NE(damaged.status().message().find("checksum mismatch"),
            std::string::npos)
      << damaged.status().ToString();
}

// ---- predictor-section corruption ------------------------------------------

TEST_F(SnapshotTest, RejectsMisshapenGdsSignatureMatrix) {
  Snapshot bad = TestSnapshot();
  bad.gds_signatures.pop_back();  // no longer n x 73
  const auto result = DecodeSnapshot(EncodeSnapshot(bad));
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("GDS signature"),
            std::string::npos)
      << result.status().ToString();
}

TEST_F(SnapshotTest, RejectsMisshapenRoleVectorMatrix) {
  Snapshot bad = TestSnapshot();
  bad.role_vectors.pop_back();  // no longer n x role_dim
  EXPECT_FALSE(DecodeSnapshot(EncodeSnapshot(bad)).ok());

  Snapshot zero_dim = TestSnapshot();
  zero_dim.role_dim = 0;  // dim 0 with a nonempty matrix is incoherent
  EXPECT_FALSE(DecodeSnapshot(EncodeSnapshot(zero_dim)).ok());
}

TEST_F(SnapshotTest, RejectsPredictorSectionTruncation) {
  // The bytes ending where the predictor section should start (the section
  // missing entirely, as in a version-2 file) must fail, not silently
  // decode. The section is three length-prefixed fields before the seal.
  const Snapshot& snapshot = TestSnapshot();
  const size_t section = 8 + 8 * snapshot.gds_signatures.size() + 4 + 8 +
                         8 * snapshot.role_vectors.size();
  std::string bytes = encoded_->substr(0, encoded_->size() - 8 - section);
  bytes.append(8, '\0');
  Reseal(&bytes);
  EXPECT_FALSE(DecodeSnapshot(bytes).ok());
}

TEST_F(SnapshotTest, RejectsTruncation) {
  // Cutting the file anywhere — inside the header, mid-section, or just
  // dropping the final byte — must fail cleanly.
  for (const size_t keep :
       {encoded_->size() - 1, encoded_->size() / 2, size_t{40}}) {
    EXPECT_FALSE(DecodeSnapshot(encoded_->substr(0, keep)).ok())
        << "kept " << keep << " of " << encoded_->size() << " bytes";
  }
}

TEST_F(SnapshotTest, RejectsBitFlips) {
  // A flip anywhere in the body breaks the checksum; a flip in the trailing
  // 8 bytes breaks the seal itself.
  for (const size_t offset :
       {size_t{13}, encoded_->size() / 3, 2 * encoded_->size() / 3,
        encoded_->size() - 3}) {
    std::string bytes = *encoded_;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x40);
    const auto result = DecodeSnapshot(bytes);
    EXPECT_FALSE(result.ok()) << "flip at offset " << offset;
  }
}

// A load takes one path at any thread count: a damaged body must report the
// checksum, and a resealed one the decode error.
class SnapshotThreadsTest : public SnapshotTest,
                            public ::testing::WithParamInterface<size_t> {
 protected:
  void SetUp() override { SetThreadCount(GetParam()); }
  void TearDown() override { SetThreadCount(0); }
};

TEST_P(SnapshotThreadsTest, DamagedBodyReportsTheChecksumFirst) {
  // The predictor section, back from the seal: role vectors (u64 count +
  // elements), role_dim (u32), GDS signatures (u64 count + elements).
  const Snapshot& snapshot = TestSnapshot();
  const size_t role_dim =
      encoded_->size() - 8 - 8 * snapshot.role_vectors.size() - 8 - 4;
  const size_t gds_count = role_dim - 8 * snapshot.gds_signatures.size() - 8;
  // The version word, then the low bytes of the GDS count and of role_dim.
  for (const size_t offset : {size_t{8}, gds_count, role_dim}) {
    std::string bytes = *encoded_;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0x10);
    const auto damaged = DecodeSnapshot(bytes);
    ASSERT_FALSE(damaged.ok()) << "offset " << offset;
    EXPECT_NE(damaged.status().message().find("checksum mismatch"),
              std::string::npos)
        << "offset " << offset << ": " << damaged.status().ToString();

    Reseal(&bytes);
    const auto resealed = DecodeSnapshot(bytes);
    ASSERT_FALSE(resealed.ok()) << "offset " << offset;
    const std::string message = resealed.status().message();
    EXPECT_EQ(message.find("checksum"), std::string::npos) << message;
    EXPECT_NE(message.find(offset == 8 ? "unsupported snapshot version"
                                       : "snapshot decode:"),
              std::string::npos)
        << message;
  }
}

TEST_P(SnapshotThreadsTest, IntactBytesDecodeWithTheirChecksum) {
  const auto decoded = DecodeSnapshot(*encoded_);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->checksum,
            SealHash(std::string_view(*encoded_).substr(
                0, encoded_->size() - 8)));
  EXPECT_EQ(EncodeSnapshot(*decoded), *encoded_);
}

INSTANTIATE_TEST_SUITE_P(Threads, SnapshotThreadsTest,
                         ::testing::Values(size_t{1}, size_t{4}));

TEST_F(SnapshotTest, RejectsTrailingGarbage) {
  EXPECT_FALSE(DecodeSnapshot(*encoded_ + "extra").ok());
}

TEST_F(SnapshotTest, ResealedBodyDamageNeverCrashes) {
  // Patch a byte, re-seal the checksum, and decode: the structural
  // validators behind the checksum gate must either reject the body or
  // produce a coherent snapshot — never crash or read out of bounds (the
  // reproduce script reruns these tests under ASan).
  for (size_t offset = 12; offset < encoded_->size() - 8;
       offset += encoded_->size() / 97 + 1) {
    std::string bytes = *encoded_;
    bytes[offset] = static_cast<char>(bytes[offset] ^ 0xff);
    Reseal(&bytes);
    const auto result = DecodeSnapshot(bytes);
    if (result.ok()) {
      // Harmless patch (e.g. a double's low mantissa bits): the decoded
      // snapshot must still be shape-consistent.
      EXPECT_EQ(result->sites.size(), result->graph.num_vertices());
    }
  }
}

}  // namespace
}  // namespace lamo
