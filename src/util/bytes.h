#ifndef LAMO_UTIL_BYTES_H_
#define LAMO_UTIL_BYTES_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace lamo {

/// ---- The one binary codec ------------------------------------------------
///
/// Checkpoint payloads and the `.lamosnap` snapshot share these primitives
/// (docs/FORMATS.md §Primitives): fixed-width little-endian integers, IEEE
/// doubles as their u64 bits, and vectors as a u64 element count followed by
/// the elements at fixed width (bools one byte each).
///
/// Fixed-width values and arrays are copied to and from the buffer with
/// memcpy, which is the file's byte order only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "the codec copies fixed-width values in host byte order, which "
              "must be the little-endian order of docs/FORMATS.md");
static_assert(sizeof(size_t) == 8, "size_t elements are written as u64");
static_assert(sizeof(double) == 8, "doubles are written as their u64 bits");

/// Appends primitives to a growing byte string.
class ByteWriter {
 public:
  void PutU8(uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof v); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof v); }
  void PutDouble(double v) { PutRaw(&v, sizeof v); }
  /// u64 length + raw bytes.
  void PutString(std::string_view s) {
    PutU64(s.size());
    bytes_.append(s);
  }
  /// Raw bytes, no length.
  void PutBytes(std::string_view s) { bytes_.append(s); }

  void PutU8Vec(const std::vector<uint8_t>& v) {
    PutString(std::string_view(reinterpret_cast<const char*>(v.data()),
                               v.size()));
  }
  /// The u32s of `v`, no count (one append).
  void PutU32Array(std::span<const uint32_t> v) {
    PutRaw(v.data(), v.size_bytes());
  }
  void PutU32Vec(const std::vector<uint32_t>& v) { PutFixedVec(v); }
  void PutU64Vec(const std::vector<uint64_t>& v) { PutFixedVec(v); }
  /// size_t elements, each written as a u64.
  void PutSizeVec(const std::vector<size_t>& v) { PutFixedVec(v); }
  void PutDoubleVec(const std::vector<double>& v) { PutFixedVec(v); }
  void PutBoolVec(const std::vector<bool>& v);

  const std::string& bytes() const { return bytes_; }
  std::string TakeBytes() { return std::move(bytes_); }

 private:
  void PutRaw(const void* data, size_t n) {
    bytes_.append(static_cast<const char*>(data), n);
  }
  template <typename T>
  void PutFixedVec(const std::vector<T>& v) {
    PutU64(v.size());
    PutRaw(v.data(), v.size() * sizeof(T));
  }

  std::string bytes_;
};

/// Reads primitives sequentially from a borrowed buffer. The first short
/// read or failed check latches a Corruption at its offset; from then on
/// every getter is a cheap no-op returning 0 or empty, so decoders run
/// straight-line and test ok()/status() once at the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view bytes) : bytes_(bytes) {}

  bool ok() const { return ok_; }
  /// OK, or Corruption carrying the first failure.
  Status status() const;
  /// The first failure's message ("<what> at offset <n>"); empty while ok().
  const std::string& error() const { return error_; }
  size_t remaining() const { return bytes_.size() - pos_; }
  bool AtEnd() const { return pos_ == bytes_.size(); }

  /// Latches `message` at the current offset unless a failure is latched.
  void Fail(std::string_view message);

  uint8_t GetU8() {
    if (!Need(1, "u8")) return 0;
    return static_cast<uint8_t>(bytes_[pos_++]);
  }
  uint32_t GetU32() { return GetFixed<uint32_t>("u32"); }
  uint64_t GetU64() { return GetFixed<uint64_t>("u64"); }
  double GetDouble() { return std::bit_cast<double>(GetU64()); }
  /// The next `n` raw bytes (a view into the buffer).
  std::string_view GetBytes(uint64_t n, const char* what) {
    if (!Need(n, what)) return {};
    const std::string_view s = bytes_.substr(pos_, n);
    pos_ += n;
    return s;
  }
  /// u64 length + raw bytes.
  std::string GetString() {
    return std::string(GetBytes(GetU64(), "string"));
  }

  /// A u64 element count, checked against the bytes left *before* anything
  /// is allocated, so a corrupt count cannot trigger a huge allocation.
  size_t GetCount(size_t element_bytes, const char* what);

  /// The next `n` u32s, no count (the caller has bounded `n`, e.g. with
  /// GetCount): one bounds check and one memcpy.
  std::vector<uint32_t> GetU32Array(size_t n, const char* what) {
    return GetFixedArray<uint32_t>(n, what);
  }

  std::vector<uint8_t> GetU8Vec(const char* what);
  /// Fixed-width vectors: the count is checked by GetCount before anything
  /// is allocated, then the elements are copied in one block.
  std::vector<uint32_t> GetU32Vec(const char* what) {
    return GetFixedArray<uint32_t>(GetCount(4, what), what);
  }
  std::vector<uint64_t> GetU64Vec(const char* what) {
    return GetFixedArray<uint64_t>(GetCount(8, what), what);
  }
  std::vector<size_t> GetSizeVec(const char* what) {
    return GetFixedArray<size_t>(GetCount(8, what), what);
  }
  std::vector<double> GetDoubleVec(const char* what) {
    return GetFixedArray<double>(GetCount(8, what), what);
  }
  std::vector<bool> GetBoolVec(const char* what);

 private:
  template <typename T>
  T GetFixed(const char* what) {
    if (!Need(sizeof(T), what)) return 0;
    T v{};
    std::memcpy(&v, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  template <typename T>
  std::vector<T> GetFixedArray(size_t n, const char* what) {
    // A count too large for the bytes left fails in GetBytes before
    // anything is allocated (and without overflowing n * sizeof(T)).
    const uint64_t size = n <= remaining() / sizeof(T)
                              ? n * sizeof(T)
                              : std::numeric_limits<uint64_t>::max();
    const std::string_view s = GetBytes(size, what);
    std::vector<T> v(s.size() / sizeof(T));
    if (!v.empty()) std::memcpy(v.data(), s.data(), s.size());
    return v;
  }

  bool Need(uint64_t n, const char* what) {
    if (!ok_) return false;
    if (n > remaining()) {
      FailTruncated(what);
      return false;
    }
    return true;
  }
  void FailTruncated(const char* what);

  std::string_view bytes_;
  size_t pos_ = 0;
  bool ok_ = true;
  std::string error_;
};

/// FNV-1a 64-bit over `bytes`, seeded by `seed` (chain calls to hash several
/// fields). The checkpoint checksum, config fingerprints and the router's
/// placement hash.
uint64_t Fnv1a64(std::string_view bytes,
                 uint64_t seed = 0xcbf29ce484222325ull);

/// The offset basis RouterHash and the version-3 snapshot seal were written
/// with: the standard 14695981039346656037 with its last decimal digit
/// dropped. Kept so shard placement holds and a version-3 snapshot can be
/// told from a damaged one.
inline constexpr uint64_t kFnvLegacyBasis = 1469598103934665603ull;

/// The snapshot seal (docs/FORMATS.md §Integrity): little-endian u64 words
/// in 32-byte blocks over four independent lanes, each step
/// `acc = rotl(acc + w * P2, 31) * P1` (an xxHash64-style round, not
/// XXH64-compatible); the lanes fold with the length, FNV-1a takes the
/// tail of fewer than 32 bytes, and an avalanche step finishes. Each lane
/// step is bijective in its word, so a flipped bit always changes its lane.
uint64_t SealHash(std::string_view bytes);

}  // namespace lamo

#endif  // LAMO_UTIL_BYTES_H_
