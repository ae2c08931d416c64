#ifndef LAMO_SERVE_JOURNAL_H_
#define LAMO_SERVE_JOURNAL_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "util/status.h"

namespace lamo {

/// One edge mutation, the unit both the delta journal and the
/// `--watch-deltas` file speak in.
struct DeltaEntry {
  bool add = true;  // true = ADDEDGE, false = DELEDGE
  VertexId u = 0;
  VertexId v = 0;
};

/// Parses one delta line — exactly the admin wire grammar, `ADDEDGE u v` or
/// `DELEDGE u v` — so journals and watched delta files can be replayed by
/// feeding each line through the same code path the TCP verbs use.
StatusOr<DeltaEntry> ParseDeltaLine(const std::string& line);

/// True for lines replay must skip without error: blank lines, `#` comments
/// and the `LAMOJOURNAL` header.
bool IsDeltaComment(const std::string& line);

/// ---- Write-ahead delta journal --------------------------------------------
///
/// Crash safety for live updates without ever rewriting the snapshot file:
/// the `.lamosnap` on disk stays the immutable base image, and the journal
/// is an append-only text file of applied mutations. Every update is
/// journaled (append + flush + fsync) BEFORE it is applied in memory, so at
/// any kill point the disk holds one of two consistent states:
///
///   * entry absent  — the update was never acknowledged; replay reproduces
///     the pre-update state;
///   * entry present — replay reproduces the post-update state, whether or
///     not the crashed process got to apply it.
///
/// The header line, `LAMOJOURNAL 1 <checksum>`, binds the journal to the
/// base snapshot by its trailing seal: attaching a journal written against
/// a different snapshot is a Corruption error, not a silent wrong replay. A
/// torn trailing line (no '\n' — the crash hit mid-append) is ignored, which
/// is exactly the "entry absent" case: an unacknowledged update.
class UpdateJournal {
 public:
  /// Opens (or creates) the journal at `path` for the snapshot identified by
  /// `snapshot_checksum`. Pre-existing complete entries are parsed into
  /// `*replay` for the caller to re-apply. The file is left open for
  /// appending.
  static StatusOr<UpdateJournal> Open(const std::string& path,
                                      uint64_t snapshot_checksum,
                                      std::vector<DeltaEntry>* replay);

  UpdateJournal(UpdateJournal&& other) noexcept;
  UpdateJournal& operator=(UpdateJournal&& other) noexcept;
  UpdateJournal(const UpdateJournal&) = delete;
  UpdateJournal& operator=(const UpdateJournal&) = delete;
  ~UpdateJournal();

  /// Durably appends one entry: write, flush, fsync, in that order, with the
  /// `update.journal` fault point armed before any byte reaches the file.
  Status Append(const DeltaEntry& entry);

  const std::string& path() const { return path_; }
  /// Entries appended or replayed through this handle (monotonic).
  size_t entries() const { return entries_; }

 private:
  UpdateJournal(std::string path, FILE* file, size_t entries)
      : path_(std::move(path)), file_(file), entries_(entries) {}

  std::string path_;
  FILE* file_ = nullptr;
  size_t entries_ = 0;
};

}  // namespace lamo

#endif  // LAMO_SERVE_JOURNAL_H_
