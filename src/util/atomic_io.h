#ifndef LAMO_UTIL_ATOMIC_IO_H_
#define LAMO_UTIL_ATOMIC_IO_H_

#include <functional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace lamo {

/// Atomically replaces `path` with `bytes`: the data is written to
/// `path + ".tmp"`, fsynced, renamed over `path`, and the containing
/// directory is fsynced, so a crash at any instant leaves either the old
/// file (or nothing) or the complete new file — never a partial one. The
/// tmp name is deterministic, so a leftover tmp from a crashed writer is
/// simply overwritten (and cleared by the rename) on the next attempt.
///
/// Fault points (util/fault.h):
///   atomic.write       hit once per write(2) call; supports crash,
///                      short_write (this call transfers at most 1 byte),
///                      eintr (this call is retried) and error.
///   atomic.pre_rename  hit after the tmp file is durable, before the
///                      rename — a crash here must leave the target intact.
///
/// `fsync_out`, when non-null, is incremented by 1 per durable replace (the
/// file + directory syncs of one call count once), feeding the
/// checkpoint.writes == checkpoint.fsyncs report invariant.
Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       size_t* fsync_out = nullptr);

/// Hands out the bytes of a file one chunk at a time: sets *chunk to the
/// next chunk (valid until the next call) and returns true, or returns false
/// once every chunk was handed out.
using ChunkSource = std::function<bool(std::string_view* chunk)>;

/// WriteFileAtomic of the chunks of `next`, in order, so a writer never
/// holds the whole file. The string form above calls this with one chunk.
Status WriteFileAtomic(const std::string& path, const ChunkSource& next,
                       size_t* fsync_out = nullptr);

/// Reads the whole of `path` into `out`. NotFound if the file does not
/// exist, IoError for any other open or read failure.
Status ReadFileToString(const std::string& path, std::string* out);

/// The deterministic tmp path WriteFileAtomic stages through (for tests and
/// leftover cleanup).
std::string AtomicTmpPath(const std::string& path);

}  // namespace lamo

#endif  // LAMO_UTIL_ATOMIC_IO_H_
