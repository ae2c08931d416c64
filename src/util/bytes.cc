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

}  // namespace lamo
