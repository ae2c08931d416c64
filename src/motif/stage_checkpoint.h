#ifndef LAMO_MOTIF_STAGE_CHECKPOINT_H_
#define LAMO_MOTIF_STAGE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "util/checkpoint.h"

namespace lamo {

/// Glue between the pipeline stages and the checkpoint container: wraps
/// Save/LoadCheckpoint with the `checkpoint.*` obs counters and the two
/// policies of DESIGN.md §9 — saves are best-effort (a failed save is logged
/// and counted, never fatal: the run keeps its in-memory state), and loads
/// are all-or-nothing (anything but a verified payload means a clean restart
/// of the stage, so a stale or corrupt checkpoint can cost recomputation but
/// never correctness).
class StageCheckpointer {
 public:
  StageCheckpointer(const CheckpointOptions& opts, std::string stage,
                    uint64_t fingerprint);

  bool enabled() const { return opts_.enabled(); }
  const CheckpointOptions& options() const { return opts_; }

  /// Durably replaces this stage's checkpoint with `payload`. Bumps
  /// checkpoint.writes / checkpoint.fsyncs on success.
  void Save(std::string_view payload) const;

  /// True (and `payload` filled) iff options().resume is set and a verified
  /// checkpoint for this stage + fingerprint exists. A missing file is a
  /// silent false; any other failure is logged and counted
  /// (checkpoint.load_failures) before falling back to a clean restart.
  bool TryLoad(std::string* payload) const;

  /// Accounts this stage's work units for the resumed_chunks <= total_chunks
  /// report invariant. No-op when checkpointing is disabled.
  void RecordChunks(size_t total, size_t resumed) const;

  /// Counts a payload decode failure (the caller restarts the stage clean).
  void RecordDecodeFailure() const;

 private:
  CheckpointOptions opts_;
  std::string stage_;
  uint64_t fingerprint_;
};

/// Payload of the two uniqueness stages ("uniqueness", "mine_uniq_<k>"): the
/// next replicate to run and the per-motif win counts so far. Decode rejects
/// a win vector whose length is not `expected_count`.
std::string EncodeWinState(size_t next_replicate,
                           const std::vector<uint64_t>& wins);
Status DecodeWinState(std::string_view payload, size_t expected_count,
                      size_t* next_replicate, std::vector<uint64_t>* wins);

/// FNV-1a fingerprint of a graph's structure (vertex count + full adjacency),
/// the input half of a stage's checkpoint fingerprint.
uint64_t GraphFingerprint(const Graph& g);

}  // namespace lamo

#endif  // LAMO_MOTIF_STAGE_CHECKPOINT_H_
