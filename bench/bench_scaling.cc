// Scaling benchmarks backing the complexity claims of Section 3:
//  - LaMoFinder's pairwise-similarity stage is O(|D|^2) in the number of
//    occurrences;
//  - the symmetry computation is polynomial in motif size (the paper cites
//    an O(n^3) heuristic; our twin classes are O(n^2) and exact orbits are
//    backtracking with refinement pruning);
//  - per-orbit pairing is O(t^3) Hungarian versus the paper's O(t!)
//    enumeration.
//
// The *Threads benchmarks sweep the worker count over the parallel hot
// stages (ESU enumeration, occurrence similarity). Run with
// --benchmark_out=<file>.json --benchmark_out_format=json to get
// machine-readable speedup curves ("threads" is emitted as a counter on
// every measurement); scripts/reproduce.sh does this for every bench.
#include <benchmark/benchmark.h>

#include <chrono>

#include "core/assignment.h"
#include "core/lamofinder.h"
#include "core/paper_example.h"
#include "graph/automorphism.h"
#include "graph/canonical.h"
#include "graph/generators.h"
#include "motif/esu.h"
#include "obs/json.h"
#include "obs/obs.h"
#include "obs/run_report.h"
#include "parallel/parallel_for.h"
#include "util/random.h"

namespace lamo {
namespace {

// The thread-sweep benchmarks pull their per-run counters out of the same
// JSON run report the CLI writes under --report (serialize, parse, read
// back), so the report schema is exercised on every bench run.
double ReportCounter(const JsonValue& report, const std::string& name) {
  const JsonValue* counters = report.Find("counters");
  const JsonValue* value =
      counters == nullptr ? nullptr : counters->Find(name);
  return value == nullptr ? 0.0 : value->number_value;
}

// Serializes `sink` as a run report and parses it back; aborts the
// benchmark on a parse failure (which would mean the emitter is broken).
JsonValue ParsedReport(const ObsSink& sink, const std::string& command,
                       size_t threads, benchmark::State& state) {
  const std::string json = RunReportJson(sink, command, threads);
  JsonValue report;
  std::string error;
  if (!ParseJson(json, &report, &error)) state.SkipWithError(error.c_str());
  return report;
}

// p99 of a named latency histogram, straight from the in-process snapshot
// (histograms carry per-item tails the summed counters cannot express).
double HistogramP99(const ObsSink& sink, const std::string& name) {
  for (const HistogramSnapshot& hist : sink.Histograms()) {
    if (hist.name == name && hist.count > 0) return hist.Percentile(0.99);
  }
  return 0.0;
}

const PaperExample& Example() {
  static const PaperExample* example = new PaperExample(MakePaperExample());
  return *example;
}

// A motif value with `d` synthetic occurrences over the example's proteins.
Motif MotifWithOccurrences(size_t d) {
  const PaperExample& ex = Example();
  Motif motif;
  motif.pattern = ex.motif;
  motif.code = CanonicalCode(ex.motif);
  motif.occurrences = OccurrenceList(4);
  Rng rng(d);
  for (size_t i = 0; i < d; ++i) {
    // Reuse the four real occurrences' proteins in rotated combinations so
    // profiles stay realistic.
    const auto& base = ex.occurrences[i % 4];
    const std::span<VertexId> occ = motif.occurrences.push_back_uninitialized();
    const size_t shift = rng.Uniform(4);
    for (size_t pos = 0; pos < 4; ++pos) occ[pos] = base[(pos + shift) % 4];
  }
  motif.frequency = d;
  motif.uniqueness = 1.0;
  return motif;
}

void BM_LaMoFinderVsOccurrenceCount(benchmark::State& state) {
  const PaperExample& ex = Example();
  const size_t d = static_cast<size_t>(state.range(0));
  const Motif motif = MotifWithOccurrences(d);
  LaMoFinder finder(ex.ontology, ex.weights, ex.informative,
                    ex.protein_annotations);
  LaMoFinderConfig config;
  config.sigma = d + 1;          // suppress emission: time the clustering
  config.max_occurrences = 0;    // no cap: expose the O(|D|^2) stage
  config.min_similarity = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.LabelMotif(motif, config));
  }
  state.SetComplexityN(static_cast<int64_t>(d));
}
BENCHMARK(BM_LaMoFinderVsOccurrenceCount)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Arg(128)
    ->Complexity();

void BM_TwinClasses(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(n * 7);
  SmallGraph g(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.3)) g.AddEdge(i, j);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(TwinClasses(g));
  }
}
BENCHMARK(BM_TwinClasses)->Arg(8)->Arg(16)->Arg(25);

void BM_VertexOrbits(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  SmallGraph cycle(n);
  for (uint32_t i = 0; i < n; ++i) {
    cycle.AddEdge(i, static_cast<uint32_t>((i + 1) % n));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(VertexOrbits(cycle));
  }
}
BENCHMARK(BM_VertexOrbits)->Arg(8)->Arg(16)->Arg(25);

void BM_HungarianAssignment(benchmark::State& state) {
  const size_t t = static_cast<size_t>(state.range(0));
  Rng rng(t * 13);
  std::vector<std::vector<double>> score(t, std::vector<double>(t));
  for (auto& row : score) {
    for (double& cell : row) cell = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxSumAssignment(score, nullptr));
  }
}
BENCHMARK(BM_HungarianAssignment)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

// Sweeps the thread count over parallel ESU enumeration
// (CountSubgraphClasses sharded by root vertex). Real time is the relevant
// axis for speedup, hence UseRealTime.
void BM_EsuEnumerationThreads(benchmark::State& state) {
  const size_t threads = static_cast<size_t>(state.range(0));
  Rng rng(2007);
  static const Graph* graph =
      new Graph(DuplicationDivergence(700, 0.4, 0.1, rng));
  SetThreadCount(threads);
  ObsSink sink;
  SetObsSink(&sink);
  const auto wall_start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountSubgraphClasses(*graph, 4));
  }
  const double wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();
  SetObsSink(nullptr);
  SetThreadCount(0);
  const JsonValue report = ParsedReport(sink, "bench_esu", threads, state);
  const double hits = ReportCounter(report, "esu.canon_cache_hits");
  const double misses = ReportCounter(report, "esu.canon_cache_misses");
  const double shared_hits = ReportCounter(report, "esu.canon_shared_hits");
  const double shared_misses =
      ReportCounter(report, "esu.canon_shared_misses");
  state.counters["threads"] = static_cast<double>(threads);
  const double subgraphs = ReportCounter(report, "esu.subgraphs");
  state.counters["subgraphs"] =
      benchmark::Counter(subgraphs, benchmark::Counter::kAvgIterations);
  // The perf-regression headline: connected size-k sets enumerated and
  // classified per second of wall time (reproduce.sh archives this in
  // BENCH_mine.json and EXPERIMENTS.md tracks it across PRs). Computed
  // against measured wall time rather than Counter::kIsRate, which divides
  // by the benchmark thread's CPU time and overstates the rate when the
  // work runs on the internal pool.
  state.counters["subgraphs_per_sec"] =
      wall_seconds > 0.0 ? subgraphs / wall_seconds : 0.0;
  state.counters["canon_hit_rate"] =
      hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  state.counters["canon_shared_hit_rate"] =
      shared_hits + shared_misses > 0.0
          ? shared_hits / (shared_hits + shared_misses)
          : 0.0;
  state.counters["chunk_p99_us"] = HistogramP99(sink, "esu.chunk_us");
  state.counters["queue_wait_us"] =
      benchmark::Counter(ReportCounter(report, "pool.queue_wait_us"),
                         benchmark::Counter::kAvgIterations);
  state.counters["queue_wait_p99_us"] = HistogramP99(sink, "pool.queue_wait_us");
}
BENCHMARK(BM_EsuEnumerationThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// Sweeps the thread count over the O(|D|^2) occurrence-similarity stage of
// LabelMotif (sigma suppressed so clustering dominates, as in
// BM_LaMoFinderVsOccurrenceCount).
void BM_OccurrenceSimilarityThreads(benchmark::State& state) {
  const PaperExample& ex = Example();
  const size_t threads = static_cast<size_t>(state.range(0));
  const Motif motif = MotifWithOccurrences(192);
  LaMoFinder finder(ex.ontology, ex.weights, ex.informative,
                    ex.protein_annotations);
  LaMoFinderConfig config;
  config.sigma = 193;
  config.max_occurrences = 0;
  config.min_similarity = 0.0;
  SetThreadCount(threads);
  ObsSink sink;
  SetObsSink(&sink);
  for (auto _ : state) {
    benchmark::DoNotOptimize(finder.LabelMotif(motif, config));
  }
  SetObsSink(nullptr);
  SetThreadCount(0);
  const JsonValue report = ParsedReport(sink, "bench_so", threads, state);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["so_cells"] =
      benchmark::Counter(ReportCounter(report, "lamofinder.so_cells"),
                         benchmark::Counter::kAvgIterations);
  state.counters["so_cell_p99_us"] = HistogramP99(sink, "lamofinder.so_cell_us");
}
BENCHMARK(BM_OccurrenceSimilarityThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_BruteForceAssignment(benchmark::State& state) {
  // The paper's pairing enumeration: factorial — only tiny orbits are
  // feasible, which is exactly the point of the Hungarian replacement.
  const size_t t = static_cast<size_t>(state.range(0));
  Rng rng(t * 17);
  std::vector<std::vector<double>> score(t, std::vector<double>(t));
  for (auto& row : score) {
    for (double& cell : row) cell = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(MaxSumAssignmentBruteForce(score, nullptr));
  }
}
BENCHMARK(BM_BruteForceAssignment)->Arg(4)->Arg(6)->Arg(8);

}  // namespace
}  // namespace lamo

BENCHMARK_MAIN();
