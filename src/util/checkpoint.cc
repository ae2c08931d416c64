#include "util/checkpoint.h"

#include <sys/stat.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>

#include "util/atomic_io.h"
#include "util/bytes.h"
#include "util/fault.h"

namespace lamo {
namespace {

/// Container layout (docs/FORMATS.md §Checkpoint):
///   magic "LAMOCKPT" (8) | version u32 | stage string | fingerprint u64 |
///   payload string | checksum u64 (FNV-1a over everything before it)
constexpr char kCkptMagic[8] = {'L', 'A', 'M', 'O', 'C', 'K', 'P', 'T'};
constexpr uint32_t kCkptVersion = 1;

const size_t kFpSave = FaultPointId("checkpoint.save");

}  // namespace

std::string CheckpointPath(const std::string& dir, const std::string& stage) {
  return dir + "/" + stage + ".ckpt";
}

Status SaveCheckpoint(const std::string& dir, const std::string& stage,
                      uint64_t fingerprint, std::string_view payload,
                      size_t* fsync_out) {
  if (mkdir(dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Status::IoError("mkdir failed for " + dir + ": " +
                           std::strerror(errno));
  }
  if (FaultHit(kFpSave) == FaultAction::kError) {
    return Status::IoError("injected checkpoint save error for " + stage);
  }
  ByteWriter w;
  w.PutBytes(std::string_view(kCkptMagic, sizeof(kCkptMagic)));
  w.PutU32(kCkptVersion);
  w.PutString(stage);
  w.PutU64(fingerprint);
  w.PutString(payload);
  w.PutU64(Fnv1a64(w.bytes()));
  return WriteFileAtomic(CheckpointPath(dir, stage), w.bytes(), fsync_out);
}

Status LoadCheckpoint(const std::string& dir, const std::string& stage,
                      uint64_t fingerprint, std::string* payload) {
  const std::string path = CheckpointPath(dir, stage);
  std::string bytes;
  LAMO_RETURN_IF_ERROR(ReadFileToString(path, &bytes));
  if (bytes.size() < sizeof(kCkptMagic) + 8 ||
      std::memcmp(bytes.data(), kCkptMagic, sizeof(kCkptMagic)) != 0) {
    return Status::Corruption("bad checkpoint magic in " + path);
  }
  const std::string_view body(bytes.data(), bytes.size() - 8);
  if (Fnv1a64(body) != ByteReader(std::string_view(bytes).substr(body.size()))
                           .GetU64()) {
    return Status::Corruption("checkpoint checksum mismatch in " + path);
  }
  ByteReader r(body.substr(sizeof(kCkptMagic)));
  if (r.GetU32() != kCkptVersion) {
    return Status::Corruption("unsupported checkpoint version in " + path);
  }
  const std::string got_stage = r.GetString();
  if (r.ok() && got_stage != stage) {
    return Status::Corruption("checkpoint stage mismatch in " + path +
                              " (got \"" + got_stage + "\")");
  }
  const uint64_t got_fingerprint = r.GetU64();
  if (r.ok() && got_fingerprint != fingerprint) {
    return Status::FailedPrecondition(
        "checkpoint fingerprint mismatch in " + path +
        " (config or input changed since the checkpoint was written)");
  }
  *payload = r.GetString();
  if (r.ok() && !r.AtEnd()) r.Fail("trailing bytes");
  if (!r.ok()) {
    return Status::Corruption("checkpoint " + path + ": " + r.error());
  }
  return Status::OK();
}

}  // namespace lamo
