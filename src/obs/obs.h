#ifndef LAMO_OBS_OBS_H_
#define LAMO_OBS_OBS_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lamo {

/// ---- Observability layer -------------------------------------------------
///
/// A lightweight metrics/tracing facility for the pipeline:
///
///   * named counters, incremented lock-free from any thread (each thread
///     owns a private cell block; blocks are merged at snapshot time);
///   * gauges (named doubles, set rarely, e.g. derived rates);
///   * hierarchical phase timers (`ScopedTimer`) over the monotonic clock;
///   * a serializable run report (see run_report.h) that the CLI writes via
///     `--report <path>` and summarizes on stderr via `--stats`.
///
/// The whole layer is *disabled by default*: no sink is installed, and every
/// instrumentation call degrades to one relaxed atomic load plus a branch.
/// Instrumented hot paths therefore cost nothing measurable when nobody is
/// observing. The CLI (or a test) enables collection by installing an
/// `ObsSink` with `SetObsSink`.
///
/// Counter naming convention (enforced by review, documented in DESIGN.md
/// §6): `<component>.<metric>` in lower snake case, cumulative totals, with
/// `_us` / `_ms` suffixes for duration sums, e.g. `esu.subgraphs`,
/// `similarity.memo_hits`, `pool.queue_wait_us`.

/// Hard cap on distinct counters; registration past the cap is a fatal
/// error. A fixed capacity keeps per-thread cell blocks allocation-stable so
/// snapshots never race block growth.
constexpr size_t kMaxObsCounters = 128;

/// Hard cap on distinct histograms (same rationale as kMaxObsCounters).
constexpr size_t kMaxObsHistograms = 32;

/// Buckets per histogram. Bucket 0 holds the value 0; bucket i >= 1 holds
/// values in [2^(i-1), 2^i - 1] (log2 buckets); the last bucket absorbs the
/// open tail. 64 buckets cover the full uint64_t range.
constexpr size_t kObsHistogramBuckets = 64;

/// Bits of ObsActiveMask(): which observability consumers are installed.
constexpr uint8_t kObsSinkBit = 1;   ///< an ObsSink (counters/histograms)
constexpr uint8_t kObsTraceBit = 2;  ///< a TraceCollector (obs/trace.h)

/// Bitmask of installed consumers. One relaxed atomic load — instrumentation
/// sites that feed both a histogram and a trace span branch on this once, so
/// the fully-disabled path stays a single load.
uint8_t ObsActiveMask();

/// Registers `name` (idempotent) and returns its dense id. Typically called
/// once per instrumentation site via a namespace-scope `const size_t`
/// initializer, so ids are resolved before any hot loop runs. Thread-safe.
size_t ObsCounterId(const std::string& name);

/// All names registered so far, indexed by counter id.
std::vector<std::string> ObsCounterNames();

class ObsSink;

/// The installed sink, or nullptr when observability is disabled.
ObsSink* GetObsSink();

/// Installs `sink` process-wide (nullptr disables collection). The caller
/// keeps ownership and must keep the sink alive until after uninstalling it;
/// no instrumented code may be running concurrently with the switch.
void SetObsSink(ObsSink* sink);

/// True iff a sink is installed. One relaxed atomic load.
bool ObsEnabled();

/// Adds `delta` to the counter. A no-op (load + branch) when disabled.
void ObsAdd(size_t counter_id, uint64_t delta);

/// ObsAdd(counter_id, 1).
inline void ObsIncrement(size_t counter_id) { ObsAdd(counter_id, 1); }

/// Registers histogram `name` (idempotent) and returns its dense id. Same
/// contract as ObsCounterId: call once at namespace scope per site.
size_t ObsHistogramId(const std::string& name);

/// All histogram names registered so far, indexed by histogram id.
std::vector<std::string> ObsHistogramNames();

/// Records one observation into the histogram (typically a per-item latency
/// in microseconds). Lock-free: bumps the calling thread's private bucket
/// cells. A no-op (load + branch) when disabled.
void ObsObserve(size_t histogram_id, uint64_t value);

/// The log2 bucket index for `value`: 0 for 0, otherwise bit_width(value)
/// clamped to the last bucket.
size_t ObsHistogramBucket(uint64_t value);

/// Inclusive value bounds of `bucket` (see kObsHistogramBuckets).
uint64_t ObsHistogramBucketLo(size_t bucket);
uint64_t ObsHistogramBucketHi(size_t bucket);

/// Merged view of one histogram across all threads.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;  ///< == sum over buckets
  uint64_t sum = 0;    ///< sum of observed values
  uint64_t min = 0;    ///< smallest observation (0 when count == 0)
  uint64_t max = 0;    ///< largest observation (0 when count == 0)
  std::array<uint64_t, kObsHistogramBuckets> buckets{};

  /// Estimated value at quantile `q` in [0, 1]: the upper bound of the
  /// bucket containing the rank-q observation, clamped to [min, max] so the
  /// estimate never leaves the observed range. Monotone in q. 0 when empty.
  uint64_t Percentile(double q) const;
};

/// Elementwise merge (bucket sums, min of mins, max of maxes). Associative
/// and commutative, so per-thread blocks may be folded in any order.
HistogramSnapshot MergeHistograms(const HistogramSnapshot& a,
                                  const HistogramSnapshot& b);

/// Hands the calling thread's counter block and trace ring to the next
/// thread that records (totals stay exact). A server calls it as each
/// connection thread ends, so obs memory follows live connections.
void ObsReleaseThreadState();

/// Labels the calling thread in per-worker breakdowns ("worker0", ...).
/// Threads that never call this are reported as "main".
void ObsSetThreadName(const std::string& name);

/// One timed phase of a run. Phases nest: `children` are the phases begun
/// while this one was open.
struct PhaseNode {
  std::string name;
  double wall_ms = 0.0;
  std::vector<PhaseNode> children;
};

/// Counter values of one thread, keyed by counter name.
struct WorkerCounters {
  std::string thread_name;
  std::map<std::string, uint64_t> counters;
};

/// Collects one run's metrics: per-thread counter blocks, gauges, and the
/// phase tree. Construct, install with SetObsSink, run the pipeline, then
/// snapshot (run_report.h turns snapshots into JSON). The destructor
/// uninstalls the sink if it is still the installed one.
///
/// Thread-safety: counters may be bumped from any thread (lock-free);
/// Begin/EndPhase and SetGauge take a mutex and are intended for
/// orchestration-level code, not per-item hot loops. Snapshots are safe once
/// the parallel regions that touched the sink have completed (the runtime's
/// region join is the synchronization point).
class ObsSink {
 public:
  ObsSink();
  ~ObsSink();

  ObsSink(const ObsSink&) = delete;
  ObsSink& operator=(const ObsSink&) = delete;

  /// Opens a phase nested under the currently open one (top-level if none).
  void BeginPhase(const std::string& name);

  /// Closes the innermost open phase, recording its wall time.
  void EndPhase();

  /// Sets gauge `name` to `value` (overwrites).
  void SetGauge(const std::string& name, double value);

  /// Merged counter totals over all threads. Every registered counter
  /// appears, zero-valued ones included, so report schemas are stable.
  std::map<std::string, uint64_t> CounterTotals() const;

  /// Per-thread counter breakdown, in block-creation order (the main
  /// thread first in practice); an entry can cover several threads that ran
  /// one after another (see ObsReleaseThreadState). Only counters registered
  /// at snapshot time appear; zero cells are included.
  std::vector<WorkerCounters> PerThreadCounters() const;

  /// Gauge snapshot.
  std::map<std::string, double> Gauges() const;

  /// Merged histograms over all threads, indexed by histogram id. Every
  /// registered histogram appears, empty ones included, so report schemas
  /// are stable.
  std::vector<HistogramSnapshot> Histograms() const;

  /// Completed top-level phases (with nested children), in begin order.
  /// Phases still open are reported with their elapsed-so-far wall time.
  std::vector<PhaseNode> Phases() const;

  /// Wall time since this sink was constructed, in milliseconds.
  double ElapsedMs() const;

  /// ---- internal plumbing (used by ObsAdd) --------------------------------

  /// One histogram's per-thread cells. min starts at UINT64_MAX so the
  /// owner-thread compare-and-store works without a sentinel branch; a block
  /// whose bucket sum is zero contributes nothing at merge time.
  struct HistogramCells {
    std::array<std::atomic<uint64_t>, kObsHistogramBuckets> buckets{};
    std::atomic<uint64_t> sum{0};
    std::atomic<uint64_t> min{UINT64_MAX};
    std::atomic<uint64_t> max{0};
  };

  /// One thread's private counter + histogram cells. Cells are atomics only
  /// so that cross-thread snapshot reads are race-free; the owning thread is
  /// the only writer, so the relaxed fetch_adds never contend.
  struct CounterBlock {
    std::string thread_name;
    std::array<std::atomic<uint64_t>, kMaxObsCounters> cells{};
    std::array<HistogramCells, kMaxObsHistograms> histograms{};
  };

  /// The calling thread's block: a released one if any, else a new one.
  CounterBlock* BlockForCurrentThread();
  /// Queues a block for reuse (see ObsReleaseThreadState).
  void ReleaseBlock(CounterBlock* block);

  /// Process-unique id of this sink; lets threads detect a sink swap and
  /// drop cached block pointers from a previous sink.
  uint64_t epoch() const { return epoch_; }

 private:
  using Clock = std::chrono::steady_clock;

  const uint64_t epoch_;
  const Clock::time_point start_;

  mutable std::mutex mu_;
  std::deque<std::unique_ptr<CounterBlock>> blocks_;  // guarded by mu_
  std::vector<CounterBlock*> free_blocks_;            // guarded by mu_
  std::map<std::string, double> gauges_;              // guarded by mu_
  std::vector<PhaseNode> root_phases_;                // guarded by mu_
  std::vector<PhaseNode*> phase_stack_;               // guarded by mu_
  std::vector<Clock::time_point> phase_starts_;       // guarded by mu_
};

/// RAII phase timer: opens a phase on the installed sink at construction and
/// closes it at destruction; when a trace collector is installed (obs/trace.h)
/// it also emits the phase as a trace span. Free (one mask load) when nothing
/// is installed. Intended for orchestration scopes (a pipeline stage), not
/// for per-item loops — it takes the sink's mutex.
class ScopedTimer {
 public:
  explicit ScopedTimer(const std::string& name);
  ~ScopedTimer();

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  ObsSink* sink_;
  size_t span_id_ = 0;
  bool span_active_ = false;
  std::chrono::steady_clock::time_point span_start_;
};

namespace internal {
/// Sets/clears one bit of ObsActiveMask(). Called by SetObsSink and
/// SetTraceCollector only; never from instrumented code.
void SetObsActiveBit(uint8_t bit, bool on);

/// The calling thread's ObsSetThreadName label ("main" when unset). Used by
/// the trace collector when registering a thread's ring.
std::string CurrentThreadName();
}  // namespace internal

}  // namespace lamo

#endif  // LAMO_OBS_OBS_H_
