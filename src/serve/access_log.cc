#include "serve/access_log.h"

#include <chrono>

#include "obs/json.h"

namespace lamo {

StatusOr<std::unique_ptr<AccessLog>> AccessLog::Open(
    const AccessLogOptions& options) {
  // "e": close-on-exec, so backends a router forks do not hold it open.
  std::FILE* file = std::fopen(options.path.c_str(), "ae");
  if (file == nullptr) {
    return Status::IoError("cannot open access log " + options.path);
  }
  return std::unique_ptr<AccessLog>(new AccessLog(file, options));
}

AccessLog::AccessLog(std::FILE* file, const AccessLogOptions& options)
    : file_(file), options_(options) {}

AccessLog::~AccessLog() { std::fclose(file_); }

bool AccessLog::Log(const Entry& entry) {
  const bool slow =
      options_.slow_ms > 0 && entry.total_us >= options_.slow_ms * 1000;
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t seq = seq_++;
  const uint64_t sample = options_.sample == 0 ? 1 : options_.sample;
  if (!slow && seq % sample != 0) return false;

  JsonWriter json;
  json.BeginObject();
  json.Key("ts_ms");
  json.Int(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count()));
  json.Key("id");
  json.Int(entry.id);
  json.Key("verb");
  json.String(entry.verb);
  json.Key("req");
  json.String(entry.request);
  json.Key("status");
  json.String(entry.ok ? "ok" : "err");
  json.Key("us");
  json.Int(entry.total_us);
  json.Key("slow");
  json.Bool(slow);
  if (entry.cache != nullptr) {
    json.Key("cache");
    json.String(entry.cache);
  }
  if (entry.backend >= 0) {
    json.Key("backend");
    json.Int(static_cast<uint64_t>(entry.backend));
  }
  if (!entry.spans_us.empty()) {
    json.Key("spans");
    json.BeginObject();
    for (const auto& [name, us] : entry.spans_us) {
      json.Key(name);
      json.Int(us);
    }
    json.EndObject();
  }
  json.EndObject();
  std::fprintf(file_, "%s\n", json.str().c_str());
  std::fflush(file_);
  return true;
}

}  // namespace lamo
