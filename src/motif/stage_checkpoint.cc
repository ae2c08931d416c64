#include "motif/stage_checkpoint.h"

#include <utility>

#include "obs/obs.h"
#include "util/bytes.h"
#include "util/logging.h"

namespace lamo {
namespace {

const size_t kObsWrites = ObsCounterId("checkpoint.writes");
const size_t kObsFsyncs = ObsCounterId("checkpoint.fsyncs");
const size_t kObsLoadFailures = ObsCounterId("checkpoint.load_failures");
const size_t kObsTotalChunks = ObsCounterId("checkpoint.total_chunks");
const size_t kObsResumedChunks = ObsCounterId("checkpoint.resumed_chunks");

}  // namespace

StageCheckpointer::StageCheckpointer(const CheckpointOptions& opts,
                                     std::string stage, uint64_t fingerprint)
    : opts_(opts), stage_(std::move(stage)), fingerprint_(fingerprint) {}

void StageCheckpointer::Save(std::string_view payload) const {
  size_t fsyncs = 0;
  const Status status =
      SaveCheckpoint(opts_.dir, stage_, fingerprint_, payload, &fsyncs);
  if (!status.ok()) {
    LAMO_LOG(Warning) << "checkpoint save failed for stage " << stage_ << ": "
                   << status;
    return;
  }
  ObsIncrement(kObsWrites);
  ObsAdd(kObsFsyncs, fsyncs);
}

bool StageCheckpointer::TryLoad(std::string* payload) const {
  if (!opts_.resume || !opts_.enabled()) return false;
  const Status status =
      LoadCheckpoint(opts_.dir, stage_, fingerprint_, payload);
  if (status.ok()) return true;
  if (!status.IsNotFound()) {
    LAMO_LOG(Warning) << "checkpoint load failed for stage " << stage_
                   << " (restarting it clean): " << status;
    ObsIncrement(kObsLoadFailures);
  }
  return false;
}

void StageCheckpointer::RecordChunks(size_t total, size_t resumed) const {
  if (!opts_.enabled()) return;
  ObsAdd(kObsTotalChunks, total);
  ObsAdd(kObsResumedChunks, resumed);
}

void StageCheckpointer::RecordDecodeFailure() const {
  LAMO_LOG(Warning) << "checkpoint payload for stage " << stage_
                 << " failed to decode; restarting it clean";
  ObsIncrement(kObsLoadFailures);
}

std::string EncodeWinState(size_t next_replicate,
                           const std::vector<uint64_t>& wins) {
  ByteWriter w;
  w.PutU64(next_replicate);
  w.PutU64Vec(wins);
  return w.TakeBytes();
}

Status DecodeWinState(std::string_view payload, size_t expected_count,
                      size_t* next_replicate, std::vector<uint64_t>* wins) {
  ByteReader r(payload);
  *next_replicate = static_cast<size_t>(r.GetU64());
  *wins = r.GetU64Vec("win");
  if (r.ok() && wins->size() != expected_count) {
    r.Fail("uniqueness win-vector size mismatch");
  }
  if (r.ok() && !r.AtEnd()) r.Fail("trailing bytes in win state");
  return r.status();
}

uint64_t GraphFingerprint(const Graph& g) {
  ByteWriter w;
  w.PutU64(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (const VertexId u : g.Neighbors(v)) w.PutU32(u);
  }
  return Fnv1a64(w.bytes());
}

}  // namespace lamo
