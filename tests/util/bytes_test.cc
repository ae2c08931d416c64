// The shared binary codec (util/bytes.h): round-trips, and the latching
// reader's contract — the first failure sticks with its offset, later
// getters return 0 or empty, counts are checked before anything is
// allocated, and a read that ends exactly at the last byte succeeds. Plus
// the two hashes: FNV-1a and the snapshot seal.
#include "util/bytes.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace lamo {
namespace {

TEST(ByteCodecTest, RoundTripsScalarsAndStrings) {
  ByteWriter writer;
  writer.PutU8(7);
  writer.PutU32(0xdeadbeef);
  writer.PutU64(0x0123456789abcdefull);
  writer.PutDouble(-1.5);
  writer.PutString("hello\0world");  // embedded NUL truncated by literal: ok
  writer.PutString("");
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.GetU8(), 7);
  EXPECT_EQ(reader.GetU32(), 0xdeadbeefu);
  EXPECT_EQ(reader.GetU64(), 0x0123456789abcdefull);
  EXPECT_EQ(reader.GetDouble(), -1.5);
  EXPECT_EQ(reader.GetString(), "hello");
  EXPECT_EQ(reader.GetString(), "");
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteCodecTest, TruncatedReadsFail) {
  ByteWriter writer;
  writer.PutU64(1);
  ByteReader reader(std::string_view(writer.bytes()).substr(0, 3));
  reader.GetU64();
  EXPECT_TRUE(reader.status().IsCorruption());
  // A string whose declared length exceeds the remaining bytes must fail,
  // not allocate or read out of bounds.
  ByteWriter evil;
  evil.PutU64(1ull << 40);
  ByteReader evil_reader(evil.bytes());
  EXPECT_EQ(evil_reader.GetString(), "");
  EXPECT_TRUE(evil_reader.status().IsCorruption());
}

TEST(ByteCodecTest, VectorsRoundTrip) {
  const std::vector<uint8_t> u8s = {0, 1, 255};
  const std::vector<uint32_t> u32s = {7, 0xffffffffu};
  const std::vector<uint64_t> u64s = {1ull << 63, 3};
  const std::vector<size_t> sizes = {0, 42};
  const std::vector<double> doubles = {0.25, -3.0};
  const std::vector<bool> bools = {true, false, true};
  ByteWriter writer;
  writer.PutU8Vec(u8s);
  writer.PutU32Vec(u32s);
  writer.PutU64Vec(u64s);
  writer.PutSizeVec(sizes);
  writer.PutDoubleVec(doubles);
  writer.PutBoolVec(bools);
  // A u8 vector is laid out exactly as a string of the same bytes.
  ByteWriter as_string;
  as_string.PutString(std::string("\x00\x01\xff", 3));
  EXPECT_EQ(writer.bytes().substr(0, as_string.bytes().size()),
            as_string.bytes());
  ByteReader reader(writer.bytes());
  EXPECT_EQ(reader.GetU8Vec("u8"), u8s);
  EXPECT_EQ(reader.GetU32Vec("u32"), u32s);
  EXPECT_EQ(reader.GetU64Vec("u64"), u64s);
  EXPECT_EQ(reader.GetSizeVec("size"), sizes);
  EXPECT_EQ(reader.GetDoubleVec("double"), doubles);
  EXPECT_EQ(reader.GetBoolVec("bool"), bools);
  EXPECT_TRUE(reader.ok());
  EXPECT_TRUE(reader.AtEnd());
}

TEST(ByteReaderTest, FirstFailureLatchesWithItsOffset) {
  ByteWriter writer;
  writer.PutU32(5);
  writer.PutU8(9);  // 5 bytes in all: the u64 below is short
  writer.PutU64(77);
  ByteReader reader(std::string_view(writer.bytes()).substr(0, 5));
  EXPECT_EQ(reader.GetU32(), 5u);
  EXPECT_EQ(reader.GetU64(), 0u);  // needs 8, only 1 left
  ASSERT_FALSE(reader.ok());
  const std::string first = reader.error();
  EXPECT_EQ(first, "truncated u64 at offset 4");
  // Everything after the failure is a no-op returning 0 or empty, even reads
  // that would fit in the bytes left, and the first error is kept.
  EXPECT_EQ(reader.GetU8(), 0);
  EXPECT_EQ(reader.GetU32(), 0u);
  EXPECT_EQ(reader.GetDouble(), 0.0);
  EXPECT_EQ(reader.GetString(), "");
  EXPECT_TRUE(reader.GetBytes(1, "byte").empty());
  EXPECT_EQ(reader.GetCount(1, "thing"), 0u);
  EXPECT_TRUE(reader.GetU32Vec("ids").empty());
  reader.Fail("a later problem");
  EXPECT_EQ(reader.error(), first);
  EXPECT_EQ(reader.remaining(), 1u);
  const Status status = reader.status();
  EXPECT_TRUE(status.IsCorruption());
  EXPECT_EQ(status.message(), first);
}

TEST(ByteReaderTest, HugeCountFailsBeforeAllocating) {
  ByteWriter writer;
  writer.PutU64(uint64_t{1} << 60);
  writer.PutU64(0);
  // Each getter would need 2^60 elements' worth of memory if it trusted the
  // count; it must fail on the count alone.
  for (const int kind : {0, 1, 2, 3, 4, 5}) {
    ByteReader reader(writer.bytes());
    size_t got = 0;
    switch (kind) {
      case 0: got = reader.GetU8Vec("u8").size(); break;
      case 1: got = reader.GetU32Vec("u32").size(); break;
      case 2: got = reader.GetU64Vec("u64").size(); break;
      case 3: got = reader.GetSizeVec("size").size(); break;
      case 4: got = reader.GetDoubleVec("double").size(); break;
      default: got = reader.GetBoolVec("bool").size(); break;
    }
    EXPECT_EQ(got, 0u) << "kind " << kind;
    EXPECT_TRUE(reader.status().IsCorruption()) << "kind " << kind;
    EXPECT_NE(reader.error().find("1152921504606846976"), std::string::npos)
        << reader.error();
  }
}

TEST(ByteReaderTest, ReadsEndingAtTheLastByteSucceed) {
  ByteWriter writer;
  writer.PutU32Vec({1, 2, 3});
  writer.PutString("xyz");
  writer.PutU8(4);
  const std::string& bytes = writer.bytes();
  ByteReader reader(bytes);
  EXPECT_EQ(reader.GetU32Vec("ids"), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_EQ(reader.GetString(), "xyz");
  EXPECT_EQ(reader.remaining(), 1u);
  EXPECT_EQ(reader.GetU8(), 4);
  EXPECT_TRUE(reader.ok()) << reader.error();
  EXPECT_TRUE(reader.AtEnd());
  // A vector whose elements fill the buffer to its very end.
  ByteReader exact(std::string_view(bytes).substr(0, 8 + 3 * 4));
  EXPECT_EQ(exact.GetCount(4, "id"), 3u);
  EXPECT_EQ(exact.remaining(), 12u);
  // One byte short of the same vector fails on the count.
  ByteReader short_by_one(std::string_view(bytes).substr(0, 8 + 3 * 4 - 1));
  EXPECT_TRUE(short_by_one.GetU32Vec("ids").empty());
  EXPECT_FALSE(short_by_one.ok());
}

// The fixed-width vector getters copy their elements in one block; the
// buffer is read from an odd offset so no element is aligned.
TEST(ByteReaderTest, BulkVectorsRoundTripFromUnalignedOffsets) {
  for (const size_t n : {size_t{0}, size_t{1}, size_t{1000}}) {
    std::vector<uint32_t> u32s(n);
    std::vector<uint64_t> u64s(n);
    std::vector<size_t> sizes(n);
    std::vector<double> doubles(n);
    for (size_t i = 0; i < n; ++i) {
      u32s[i] = static_cast<uint32_t>(i * 2654435761u);
      u64s[i] = (uint64_t{i} << 40) ^ (i * 0x9e3779b97f4a7c15ull);
      sizes[i] = i * 7 + 1;
      doubles[i] = -0.5 * static_cast<double>(i) + 1e-3;
    }
    ByteWriter writer;
    writer.PutU8(0xab);  // shifts everything after it to an odd offset
    writer.PutU32Vec(u32s);
    writer.PutU64Vec(u64s);
    writer.PutSizeVec(sizes);
    writer.PutDoubleVec(doubles);
    writer.PutU32Array(u32s);
    const std::string buffer = "x" + writer.bytes();  // odd base, too
    ByteReader reader(std::string_view(buffer).substr(1));
    EXPECT_EQ(reader.GetU8(), 0xab);
    EXPECT_EQ(reader.GetU32Vec("u32"), u32s) << n;
    EXPECT_EQ(reader.GetU64Vec("u64"), u64s) << n;
    EXPECT_EQ(reader.GetSizeVec("size"), sizes) << n;
    EXPECT_EQ(reader.GetDoubleVec("double"), doubles) << n;
    EXPECT_EQ(reader.GetU32Array(n, "u32 array"), u32s) << n;
    EXPECT_TRUE(reader.ok()) << reader.error();
    EXPECT_TRUE(reader.AtEnd());
  }
}

TEST(ByteReaderTest, BulkVectorTruncatedInsideItsElementsFailsAtTheCount) {
  // Three elements declared, the buffer ends inside the last one: the count
  // check fails first, naming the count at the count's own end offset.
  struct Kind {
    int id;
    size_t width;
    const char* what;
  };
  for (const Kind kind : {Kind{0, 4, "u32"}, Kind{1, 8, "u64"},
                          Kind{2, 8, "size"}, Kind{3, 8, "double"}}) {
    ByteWriter writer;
    writer.PutU64(3);
    writer.PutBytes(std::string(3 * kind.width - 1, '\x5a'));
    ByteReader reader(writer.bytes());
    size_t got = 0;
    switch (kind.id) {
      case 0: got = reader.GetU32Vec(kind.what).size(); break;
      case 1: got = reader.GetU64Vec(kind.what).size(); break;
      case 2: got = reader.GetSizeVec(kind.what).size(); break;
      default: got = reader.GetDoubleVec(kind.what).size(); break;
    }
    EXPECT_EQ(got, 0u) << kind.what;
    EXPECT_EQ(reader.error(),
              std::string("implausible ") + kind.what + " count 3 at offset 8");
    // After the failure every getter returns empty and the error stays.
    EXPECT_TRUE(reader.GetU32Vec("u32").empty());
    EXPECT_TRUE(reader.GetU64Vec("u64").empty());
    EXPECT_TRUE(reader.GetSizeVec("size").empty());
    EXPECT_TRUE(reader.GetDoubleVec("double").empty());
    EXPECT_TRUE(reader.GetU32Array(0, "u32 array").empty());
    EXPECT_EQ(reader.error(),
              std::string("implausible ") + kind.what + " count 3 at offset 8");
  }
}

TEST(ByteReaderTest, BulkArrayLongerThanTheBufferFailsWithoutAllocating) {
  ByteWriter writer;
  writer.PutU32Array(std::vector<uint32_t>{1, 2});
  ByteReader reader(writer.bytes());
  EXPECT_TRUE(reader.GetU32Array(size_t{1} << 62, "ids").empty());
  EXPECT_EQ(reader.error(), "truncated ids at offset 0");
}

TEST(Fnv1a64Test, MatchesReferenceValues) {
  // Reference FNV-1a 64 values: the empty string is the offset basis.
  EXPECT_EQ(Fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(Fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(Fnv1a64("foobar"), 0x85944171f73967e8ull);
  // Chaining equals hashing the concatenation.
  EXPECT_EQ(Fnv1a64("bar", Fnv1a64("foo")), Fnv1a64("foobar"));
  EXPECT_EQ(Fnv1a64("", kFnvLegacyBasis), kFnvLegacyBasis);
}

// `size` bytes of a fixed, irregular pattern.
std::string SealInput(size_t size) {
  std::string bytes(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<char>((i * 131 + 7) ^ (i >> 3));
  }
  return bytes;
}

TEST(SealHashTest, MatchesRecordedValues) {
  // Recorded from this implementation: the snapshot seal is part of the
  // file format, so these must never move. The lengths cover the tail-only
  // path, one block exactly, and blocks plus a tail.
  EXPECT_EQ(SealHash(""), 0x3fdf455f9dcf1e62ull);
  EXPECT_EQ(SealHash("a"), 0x06e20623e1c594f2ull);
  EXPECT_EQ(SealHash(SealInput(32)), 0xaa0bd4b60f1fda14ull);
  EXPECT_EQ(SealHash(SealInput(97)), 0x6067809ec0467938ull);
  EXPECT_EQ(SealHash(SealInput(4096)), 0xc0e74c1639cdd6d5ull);
}

TEST(SealHashTest, EveryOneAndTwoBitFlipChangesTheSeal) {
  // Lengths 0-97 cover the tail alone, whole blocks, and blocks plus every
  // tail length; each flip or pair of flips anywhere must change the seal.
  size_t unchanged = 0;
  for (size_t size = 0; size <= 97; ++size) {
    std::string bytes = SealInput(size);
    const uint64_t seal = SealHash(bytes);
    const size_t bits = 8 * size;
    for (size_t i = 0; i < bits; ++i) {
      bytes[i / 8] = static_cast<char>(bytes[i / 8] ^ (1 << (i % 8)));
      if (SealHash(bytes) == seal) ++unchanged;
      for (size_t j = i + 1; j < bits; ++j) {
        bytes[j / 8] = static_cast<char>(bytes[j / 8] ^ (1 << (j % 8)));
        if (SealHash(bytes) == seal) ++unchanged;
        bytes[j / 8] = static_cast<char>(bytes[j / 8] ^ (1 << (j % 8)));
      }
      bytes[i / 8] = static_cast<char>(bytes[i / 8] ^ (1 << (i % 8)));
    }
  }
  EXPECT_EQ(unchanged, 0u);
}

TEST(SealHashTest, LengthIsPartOfTheSeal) {
  // Zero padding must not collide with the shorter input, across the
  // tail and across a block boundary.
  for (const size_t size : {size_t{0}, size_t{5}, size_t{31}, size_t{32},
                            size_t{63}}) {
    const std::string bytes = SealInput(size);
    EXPECT_NE(SealHash(bytes), SealHash(bytes + std::string(1, '\0')))
        << size;
    EXPECT_NE(SealHash(bytes), SealHash(bytes + std::string(32, '\0')))
        << size;
  }
}

}  // namespace
}  // namespace lamo
