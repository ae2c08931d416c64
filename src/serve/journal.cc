#include "serve/journal.h"

#include <unistd.h>

#include <cerrno>
#include <cinttypes>
#include <cstring>
#include <sstream>

#include "util/atomic_io.h"
#include "util/fault.h"

namespace lamo {
namespace {

const size_t kFaultJournal = FaultPointId("update.journal");

std::string HeaderLine(uint64_t checksum) {
  char buf[64];
  snprintf(buf, sizeof(buf), "LAMOJOURNAL 1 %016" PRIx64, checksum);
  return buf;
}

}  // namespace

StatusOr<DeltaEntry> ParseDeltaLine(const std::string& line) {
  std::istringstream in(line);
  std::string verb;
  in >> verb;
  DeltaEntry entry;
  if (verb == "ADDEDGE") {
    entry.add = true;
  } else if (verb == "DELEDGE") {
    entry.add = false;
  } else {
    return Status::InvalidArgument("delta line must start with ADDEDGE or "
                                   "DELEDGE, got: " + line);
  }
  uint64_t u = 0, v = 0;
  std::string extra;
  if (!(in >> u >> v) || (in >> extra)) {
    return Status::InvalidArgument("delta line wants exactly two vertex ids: " +
                                   line);
  }
  entry.u = static_cast<VertexId>(u);
  entry.v = static_cast<VertexId>(v);
  return entry;
}

bool IsDeltaComment(const std::string& line) {
  size_t i = 0;
  while (i < line.size() && (line[i] == ' ' || line[i] == '\t' ||
                             line[i] == '\r')) {
    ++i;
  }
  if (i == line.size()) return true;
  if (line[i] == '#') return true;
  return line.compare(i, 11, "LAMOJOURNAL") == 0;
}

StatusOr<UpdateJournal> UpdateJournal::Open(const std::string& path,
                                            uint64_t snapshot_checksum,
                                            std::vector<DeltaEntry>* replay) {
  replay->clear();
  const std::string header = HeaderLine(snapshot_checksum);
  // Replay a pre-existing journal (a missing one reads as empty): the header
  // must bind to this snapshot; complete entry lines are parsed; a torn
  // trailing fragment (no '\n') is the unacknowledged update a crash left
  // behind — skip it.
  std::string content;
  const Status read = ReadFileToString(path, &content);
  if (!read.ok() && !read.IsNotFound()) return read;
  size_t entries = 0;
  size_t pos = 0;
  bool saw_header = false;
  while (pos < content.size()) {
    const size_t nl = content.find('\n', pos);
    if (nl == std::string::npos) break;  // torn trailing line
    std::string line = content.substr(pos, nl - pos);
    pos = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!saw_header) {
      if (line != header) {
        return Status::Corruption(
            "journal " + path + " does not belong to this snapshot: "
            "header \"" + line + "\" wants \"" + header + "\"");
      }
      saw_header = true;
      continue;
    }
    if (IsDeltaComment(line)) continue;
    StatusOr<DeltaEntry> entry = ParseDeltaLine(line);
    if (!entry.ok()) return entry.status();
    replay->push_back(*entry);
    ++entries;
  }
  if (!saw_header && !content.empty()) {
    return Status::Corruption("journal " + path +
                              " has no complete header line");
  }
  FILE* file = fopen(path.c_str(), "ae");  // "e": close-on-exec
  if (file == nullptr) {
    return Status::IoError("cannot open journal " + path +
                           " for append: " + strerror(errno));
  }
  if (content.empty()) {
    // A new or empty file (e.g. touch'd by an operator): write the header.
    if (fprintf(file, "%s\n", header.c_str()) < 0 || fflush(file) != 0 ||
        fsync(fileno(file)) != 0) {
      fclose(file);
      return Status::IoError("cannot write journal header to " + path);
    }
  }
  return UpdateJournal(path, file, entries);
}

UpdateJournal::UpdateJournal(UpdateJournal&& other) noexcept
    : path_(std::move(other.path_)),
      file_(other.file_),
      entries_(other.entries_) {
  other.file_ = nullptr;
}

UpdateJournal& UpdateJournal::operator=(UpdateJournal&& other) noexcept {
  if (this != &other) {
    if (file_ != nullptr) fclose(file_);
    path_ = std::move(other.path_);
    file_ = other.file_;
    entries_ = other.entries_;
    other.file_ = nullptr;
  }
  return *this;
}

UpdateJournal::~UpdateJournal() {
  if (file_ != nullptr) fclose(file_);
}

Status UpdateJournal::Append(const DeltaEntry& entry) {
  // The fault point sits before the first byte reaches the file: a crash
  // here leaves no trace, so replay reproduces the pre-update state and the
  // client never saw an ack — the "entry absent" consistency case.
  const FaultAction action = FaultHit(kFaultJournal);
  if (action == FaultAction::kError) {
    return Status::IoError("injected journal append failure");
  }
  if (file_ == nullptr) {
    return Status::FailedPrecondition("journal is closed");
  }
  if (fprintf(file_, "%s %u %u\n", entry.add ? "ADDEDGE" : "DELEDGE",
              entry.u, entry.v) < 0 ||
      fflush(file_) != 0 || fsync(fileno(file_)) != 0) {
    return Status::IoError("journal append to " + path_ + " failed: " +
                           strerror(errno));
  }
  ++entries_;
  return Status::OK();
}

}  // namespace lamo
