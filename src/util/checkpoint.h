#ifndef LAMO_UTIL_CHECKPOINT_H_
#define LAMO_UTIL_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "util/status.h"

namespace lamo {

/// ---- Crash-safe stage checkpoints -----------------------------------------
///
/// A checkpoint is one file per pipeline stage, `<dir>/<stage>.ckpt`, holding
/// an opaque stage payload inside a versioned, checksummed container (layout
/// in docs/FORMATS.md §Checkpoint). Files are replaced via WriteFileAtomic,
/// so a crash mid-save leaves the previous complete checkpoint (or none) —
/// never a torn one. On resume, any load failure (missing file, bad magic,
/// bad checksum, mismatched fingerprint) is reported as a Status and the
/// stage restarts cleanly from the beginning; a stale or corrupt checkpoint
/// can cost recomputation but never correctness.

/// How a stage checkpoints, plumbed from the `--checkpoint`,
/// `--checkpoint-every` and `--resume` CLI flags.
struct CheckpointOptions {
  /// Directory for checkpoint files; empty disables checkpointing.
  std::string dir;
  /// Save after every N units of work (chunks / replicates / motifs).
  size_t every = 1;
  /// Attempt to load an existing checkpoint before starting.
  bool resume = false;

  bool enabled() const { return !dir.empty(); }
};

/// Atomically writes `<dir>/<stage>.ckpt` (creating `dir` if needed).
/// `fingerprint` identifies the config + input the payload belongs to;
/// LoadCheckpoint rejects a mismatch so a resumed run can't silently mix
/// state across configurations. `fsync_out` as in WriteFileAtomic.
Status SaveCheckpoint(const std::string& dir, const std::string& stage,
                      uint64_t fingerprint, std::string_view payload,
                      size_t* fsync_out = nullptr);

/// Loads and verifies `<dir>/<stage>.ckpt` into `payload`. NotFound if the
/// file does not exist, Corruption for any structural or checksum failure,
/// FailedPrecondition if the fingerprint does not match.
Status LoadCheckpoint(const std::string& dir, const std::string& stage,
                      uint64_t fingerprint, std::string* payload);

/// The checkpoint file path for a stage (for tests and docs).
std::string CheckpointPath(const std::string& dir, const std::string& stage);

}  // namespace lamo

#endif  // LAMO_UTIL_CHECKPOINT_H_
