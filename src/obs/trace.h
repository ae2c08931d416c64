#ifndef LAMO_OBS_TRACE_H_
#define LAMO_OBS_TRACE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/obs.h"
#include "util/status.h"

namespace lamo {

/// ---- Span tracer ---------------------------------------------------------
///
/// A low-overhead span tracer alongside the counter/histogram layer of
/// obs.h. Instrumented scopes record fixed-size events (span name id,
/// start/duration in µs, up to two numeric args) into per-thread ring
/// buffers owned by a process-wide `TraceCollector`; at flush time the
/// rings serialize into Chrome trace-event JSON, loadable in
/// `chrome://tracing` or the Perfetto UI. The CLI installs a collector
/// under `--trace <path>`.
///
/// Contract (same as ObsSink): disabled by default, and every instrumented
/// scope then costs one relaxed atomic load (ObsActiveMask covers both
/// layers at combined sites). Recording is lock-free — each thread appends
/// to its own ring; a full ring overwrites the oldest events and bumps the
/// `trace.dropped` counter instead of ever blocking the hot path.

/// Hard cap on distinct span names (same rationale as kMaxObsCounters).
constexpr size_t kMaxObsSpans = 64;

/// Default per-thread ring capacity, in events (~48 bytes each).
constexpr size_t kDefaultTraceEventsPerThread = 1 << 16;

/// Registers span `name` (idempotent) and returns its dense id. Call once
/// per instrumentation site via a namespace-scope initializer.
size_t ObsSpanId(const std::string& name);

/// All span names registered so far, indexed by span id.
std::vector<std::string> ObsSpanNames();

/// One completed span. Fixed-size so ring slots never allocate.
struct TraceEvent {
  uint32_t span_id = 0;
  uint8_t num_args = 0;
  uint64_t start_us = 0;  ///< relative to the collector's start time
  uint64_t dur_us = 0;
  uint64_t args[2] = {0, 0};
};

/// Collects spans from all threads into per-thread rings. Construct,
/// install with SetTraceCollector, run the pipeline, uninstall, then
/// serialize with ToJson/WriteFile. The destructor uninstalls the collector
/// if it is still the installed one.
///
/// Thread-safety: recording is owner-thread-only per ring (lock-free);
/// ToJson/DroppedEvents are safe once the parallel regions that recorded
/// spans have completed (the runtime's region join is the synchronization
/// point, exactly as for ObsSink snapshots).
class TraceCollector {
 public:
  explicit TraceCollector(
      size_t events_per_thread = kDefaultTraceEventsPerThread);
  ~TraceCollector();

  TraceCollector(const TraceCollector&) = delete;
  TraceCollector& operator=(const TraceCollector&) = delete;

  /// One thread's ring. `next` is a monotone write index; live events are
  /// the last min(next, capacity) writes, so overflow drops oldest.
  struct Ring {
    uint32_t tid = 0;
    std::string thread_name;
    std::vector<TraceEvent> slots;  // fixed capacity, set at registration
    uint64_t next = 0;              // owner-thread writes, post-join reads
  };

  /// The calling thread's ring: a released one (tid and events kept) if
  /// any, else a new one.
  Ring* RingForCurrentThread();
  /// Queues a ring for reuse (see ObsReleaseThreadState in obs/obs.h).
  void ReleaseRing(Ring* ring);

  /// Records one span into the calling thread's ring.
  void Record(size_t span_id, uint64_t start_us, uint64_t dur_us,
              uint64_t arg0, uint64_t arg1, size_t num_args);

  /// Events lost to ring overflow, summed over threads.
  uint64_t DroppedEvents() const;

  /// Events recorded (including later-dropped ones), summed over threads.
  uint64_t RecordedEvents() const;

  /// Serializes all rings as Chrome trace-event JSON: one `ph:"X"`
  /// (complete) event per span with ts/dur in microseconds, plus `ph:"M"`
  /// thread_name metadata per thread and an `otherData` block with
  /// recorded/dropped totals.
  std::string ToJson() const;

  /// Writes ToJson() to `path` (trailing newline added).
  Status WriteFile(const std::string& path) const;

  /// Microseconds since this collector was constructed.
  uint64_t NowMicros() const;

  /// Converts an absolute steady_clock time to collector-relative µs.
  uint64_t MicrosSinceStart(std::chrono::steady_clock::time_point t) const;

  /// Process-unique id; lets threads detect a collector swap and drop
  /// cached ring pointers (same scheme as ObsSink::epoch).
  uint64_t epoch() const { return epoch_; }

 private:
  const uint64_t epoch_;
  const std::chrono::steady_clock::time_point start_;
  const size_t events_per_thread_;

  mutable std::mutex mu_;
  std::deque<std::unique_ptr<Ring>> rings_;  // guarded by mu_
  std::vector<Ring*> free_rings_;            // guarded by mu_
};

namespace internal {
/// The trace half of ObsReleaseThreadState.
void ReleaseTraceRing();
}  // namespace internal

/// The installed collector, or nullptr when tracing is disabled.
TraceCollector* GetTraceCollector();

/// Installs `collector` process-wide (nullptr disables tracing). Same
/// ownership/quiescence contract as SetObsSink.
void SetTraceCollector(TraceCollector* collector);

/// True iff a collector is installed. One relaxed atomic load.
bool TraceEnabled();

/// Records a completed span on the installed collector; no-op when tracing
/// is disabled. `start`/`end` are absolute steady_clock times.
void TraceRecordSpan(size_t span_id,
                     std::chrono::steady_clock::time_point start,
                     std::chrono::steady_clock::time_point end,
                     uint64_t arg0 = 0, uint64_t arg1 = 0,
                     size_t num_args = 0);

/// RAII span: records [construction, destruction) on the installed
/// collector. One relaxed load (plus a branch) when tracing is disabled —
/// safe in per-item loops, unlike ScopedTimer.
class ScopedSpan {
 public:
  explicit ScopedSpan(size_t span_id)
      : ScopedSpan(span_id, 0, 0, 0) {}
  ScopedSpan(size_t span_id, uint64_t arg0)
      : ScopedSpan(span_id, arg0, 0, 1) {}
  ScopedSpan(size_t span_id, uint64_t arg0, uint64_t arg1)
      : ScopedSpan(span_id, arg0, arg1, 2) {}
  ~ScopedSpan() {
    if (!active_) return;
    TraceRecordSpan(span_id_, start_, std::chrono::steady_clock::now(),
                    args_[0], args_[1], num_args_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Sets arg `i` (0 or 1) after construction, e.g. a count known only at
  /// scope exit. Expands num_args to cover `i`.
  void set_arg(size_t i, uint64_t value) {
    if (!active_ || i >= 2) return;
    args_[i] = value;
    if (num_args_ <= i) num_args_ = static_cast<uint8_t>(i + 1);
  }

 private:
  ScopedSpan(size_t span_id, uint64_t arg0, uint64_t arg1, size_t num_args)
      : active_(TraceEnabled()), span_id_(span_id),
        num_args_(static_cast<uint8_t>(num_args)), args_{arg0, arg1} {
    if (active_) start_ = std::chrono::steady_clock::now();
  }

  bool active_;
  size_t span_id_;
  uint8_t num_args_;
  uint64_t args_[2];
  std::chrono::steady_clock::time_point start_;
};

/// RAII per-item timer feeding both layers: on destruction the elapsed µs
/// goes into histogram `histogram_id` (when an ObsSink is installed) and a
/// span `span_id` (when a TraceCollector is installed). Costs exactly one
/// relaxed load when both are disabled — this is the instrument for the
/// per-item scopes ScopedTimer is too heavy for.
class ScopedItemTimer {
 public:
  ScopedItemTimer(size_t span_id, size_t histogram_id, uint64_t arg0 = 0,
                  uint64_t arg1 = 0, size_t num_args = 0)
      : mask_(ObsActiveMask()), span_id_(span_id),
        histogram_id_(histogram_id),
        num_args_(static_cast<uint8_t>(num_args)), args_{arg0, arg1} {
    if (mask_ != 0) start_ = std::chrono::steady_clock::now();
  }
  ~ScopedItemTimer() {
    if (mask_ == 0) return;
    const auto end = std::chrono::steady_clock::now();
    if (mask_ & kObsSinkBit) {
      ObsObserve(histogram_id_,
                 static_cast<uint64_t>(
                     std::chrono::duration_cast<std::chrono::microseconds>(
                         end - start_)
                         .count()));
    }
    if (mask_ & kObsTraceBit) {
      TraceRecordSpan(span_id_, start_, end, args_[0], args_[1], num_args_);
    }
  }

  ScopedItemTimer(const ScopedItemTimer&) = delete;
  ScopedItemTimer& operator=(const ScopedItemTimer&) = delete;

  /// See ScopedSpan::set_arg.
  void set_arg(size_t i, uint64_t value) {
    if (mask_ == 0 || i >= 2) return;
    args_[i] = value;
    if (num_args_ <= i) num_args_ = static_cast<uint8_t>(i + 1);
  }

 private:
  uint8_t mask_;
  size_t span_id_;
  size_t histogram_id_;
  uint8_t num_args_;
  uint64_t args_[2];
  std::chrono::steady_clock::time_point start_;
};

}  // namespace lamo

#endif  // LAMO_OBS_TRACE_H_
