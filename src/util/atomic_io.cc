#include "util/atomic_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "util/fault.h"

namespace lamo {
namespace {

const size_t kFpWrite = FaultPointId("atomic.write");
const size_t kFpPreRename = FaultPointId("atomic.pre_rename");

Status IoErrorFor(const std::string& op, const std::string& path) {
  return Status::IoError(op + " failed for " + path + ": " +
                         std::strerror(errno));
}

/// write(2) loop that survives short writes and EINTR — the two behaviors
/// the atomic.write fault point injects on demand.
Status WriteAll(int fd, std::string_view bytes, const std::string& path) {
  size_t done = 0;
  while (done < bytes.size()) {
    size_t want = bytes.size() - done;
    switch (FaultHit(kFpWrite)) {
      case FaultAction::kShortWrite:
        want = 1;
        break;
      case FaultAction::kEintr:
        errno = EINTR;
        continue;
      case FaultAction::kError:
        return Status::IoError("injected write error for " + path);
      default:
        break;
    }
    const ssize_t n = write(fd, bytes.data() + done, want);
    if (n < 0) {
      if (errno == EINTR) continue;
      return IoErrorFor("write", path);
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status FsyncDirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = open(dir.empty() ? "/" : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return IoErrorFor("open dir", dir);
  const int rc = fsync(fd);
  close(fd);
  // Some filesystems refuse directory fsync; the rename is still ordered
  // after the file fsync, so treat EINVAL as best-effort success.
  if (rc != 0 && errno != EINVAL) return IoErrorFor("fsync dir", dir);
  return Status::OK();
}

}  // namespace

Status ReadFileToString(const std::string& path, std::string* out) {
  const int fd = open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no file at " + path);
    return IoErrorFor("open", path);
  }
  // Read straight into the string, sized from fstat with one spare byte so
  // the read that sees end-of-file needs no regrowth. A file that grew since
  // (or one fstat cannot size) doubles the buffer until read returns 0.
  struct stat st;
  const size_t expected =
      fstat(fd, &st) == 0 && st.st_size > 0 ? static_cast<size_t>(st.st_size)
                                            : 0;
  out->resize(expected + 1);
  size_t done = 0;
  for (;;) {
    if (done == out->size()) out->resize(2 * out->size());
    const ssize_t n = read(fd, out->data() + done, out->size() - done);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      const Status status = IoErrorFor("read", path);
      close(fd);
      out->clear();
      return status;
    }
    done += static_cast<size_t>(n);
  }
  out->resize(done);
  close(fd);
  return Status::OK();
}

std::string AtomicTmpPath(const std::string& path) { return path + ".tmp"; }

Status WriteFileAtomic(const std::string& path, std::string_view bytes,
                       size_t* fsync_out) {
  bool done = false;
  return WriteFileAtomic(
      path,
      [&](std::string_view* chunk) {
        *chunk = bytes;
        return !std::exchange(done, true);
      },
      fsync_out);
}

Status WriteFileAtomic(const std::string& path, const ChunkSource& next,
                       size_t* fsync_out) {
  const std::string tmp = AtomicTmpPath(path);
  const int fd = open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return IoErrorFor("open", tmp);
  Status status;
  std::string_view chunk;
  while (status.ok() && next(&chunk)) status = WriteAll(fd, chunk, tmp);
  if (status.ok() && fsync(fd) != 0) status = IoErrorFor("fsync", tmp);
  if (close(fd) != 0 && status.ok()) status = IoErrorFor("close", tmp);
  if (!status.ok()) {
    unlink(tmp.c_str());
    return status;
  }
  FaultHit(kFpPreRename);
  if (rename(tmp.c_str(), path.c_str()) != 0) {
    const Status rename_status = IoErrorFor("rename", tmp);
    unlink(tmp.c_str());
    return rename_status;
  }
  LAMO_RETURN_IF_ERROR(FsyncDirOf(path));
  if (fsync_out != nullptr) ++*fsync_out;
  return Status::OK();
}

}  // namespace lamo
