#include "util/bytes.h"

namespace lamo {

void ByteWriter::PutBoolVec(const std::vector<bool>& v) {
  PutU64(v.size());
  for (const bool b : v) PutU8(b ? 1 : 0);
}

Status ByteReader::status() const {
  return ok_ ? Status::OK() : Status::Corruption(error_);
}

void ByteReader::Fail(std::string_view message) {
  if (!ok_) return;
  ok_ = false;
  error_ = std::string(message) + " at offset " + std::to_string(pos_);
}

void ByteReader::FailTruncated(const char* what) {
  Fail(std::string("truncated ") + what);
}

size_t ByteReader::GetCount(size_t element_bytes, const char* what) {
  const uint64_t n = GetU64();
  if (!ok_) return 0;
  if (element_bytes != 0 && n > remaining() / element_bytes) {
    Fail(std::string("implausible ") + what + " count " + std::to_string(n));
    return 0;
  }
  return static_cast<size_t>(n);
}

std::vector<uint8_t> ByteReader::GetU8Vec(const char* what) {
  const std::string_view s = GetBytes(GetCount(1, what), what);
  return std::vector<uint8_t>(s.begin(), s.end());
}

std::vector<bool> ByteReader::GetBoolVec(const char* what) {
  std::vector<bool> v(GetCount(1, what));
  for (size_t i = 0; i < v.size(); ++i) v[i] = GetU8() != 0;
  return v;
}

uint64_t Fnv1a64(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (const char c : bytes) {
    h ^= static_cast<uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

constexpr uint64_t kSealP1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kSealP2 = 0xc2b2ae3d27d4eb4full;
constexpr uint64_t kSealP3 = 0x165667b19e3779f9ull;
constexpr uint64_t kSealP4 = 0x85ebca77c2b2ae63ull;

uint64_t SealRound(uint64_t acc, uint64_t word) {
  return std::rotl(acc + word * kSealP2, 31) * kSealP1;
}

}  // namespace

uint64_t SealHash(std::string_view bytes) {
  const char* p = bytes.data();
  const size_t blocks = bytes.size() / 32;
  uint64_t lane[4] = {kSealP1 + kSealP2, kSealP2, 0, 0 - kSealP1};
  for (size_t b = 0; b < blocks; ++b, p += 32) {
    uint64_t word[4];
    std::memcpy(word, p, sizeof word);
    for (int i = 0; i < 4; ++i) lane[i] = SealRound(lane[i], word[i]);
  }
  uint64_t h = std::rotl(lane[0], 1) + std::rotl(lane[1], 7) +
               std::rotl(lane[2], 12) + std::rotl(lane[3], 18);
  for (const uint64_t acc : lane) {
    h = (h ^ SealRound(0, acc)) * kSealP1 + kSealP4;
  }
  h = Fnv1a64(bytes.substr(blocks * 32), h + bytes.size());
  h ^= h >> 33;
  h *= kSealP2;
  h ^= h >> 29;
  h *= kSealP3;
  h ^= h >> 32;
  return h;
}

}  // namespace lamo
