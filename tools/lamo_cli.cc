// lamo — command-line driver for the LaMoFinder pipeline.
//
//   lamo generate --proteins 1500 --seed 7 --out data/run1
//   lamo stats    --graph data/run1.graph.txt
//   lamo mine     --graph data/run1.graph.txt --min-size 3 --max-size 5
//                 --min-freq 40 --out data/run1.motifs.txt
//   lamo label    --graph data/run1.graph.txt --obo data/run1.obo
//                 --annotations data/run1.annotations.tsv
//                 --motifs data/run1.motifs.txt --sigma 10
//                 --out data/run1.labeled.txt
//   lamo predict  --graph data/run1.graph.txt --obo data/run1.obo
//                 --annotations data/run1.annotations.tsv
//                 --labeled data/run1.labeled.txt --protein 42
//   lamo pack     --graph data/run1.graph.txt --obo data/run1.obo
//                 --annotations data/run1.annotations.tsv
//                 --labeled data/run1.labeled.txt --out data/run1.lamosnap
//   lamo serve    --snapshot data/run1.lamosnap --port 7471
//
// The pipeline stages read and write the plain-text formats of src/io, so
// stages can be rerun, diffed and mixed with external tools; pack/serve add
// a binary snapshot compiled once and queried many times (src/serve).
//
// Flag parsing is strict: every command declares its flags, and an unknown
// flag, a missing value, or a malformed numeric value prints the usage text
// and exits nonzero.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/lamofinder.h"
#include "graph/algorithms.h"
#include "graph/graph_index.h"
#include "io/edge_list.h"
#include "io/gaf.h"
#include "io/motif_io.h"
#include "io/obo.h"
#include "motif/esu_finder.h"
#include "motif/uniqueness.h"
#include "obs/obs.h"
#include "obs/run_report.h"
#include "obs/trace.h"
#include "parallel/parallel_for.h"
#include "predict/registry.h"
#include "router/cluster.h"
#include "router/router.h"
#include "serve/access_log.h"
#include "serve/journal.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/update.h"
#include "synth/dataset.h"
#include "util/checkpoint.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace lamo {
namespace {

/// What a flag's value must look like. kBool flags take no value; all other
/// kinds require one, validated at parse time.
enum class FlagKind { kString, kSize, kDouble, kBool };

struct FlagSpec {
  const char* name;
  FlagKind kind;
};

/// Parsed `--name value` pairs, validated against one command's FlagSpec
/// list. Parse rejects unknown flags, missing values and malformed numbers
/// instead of silently ignoring them.
class Flags {
 public:
  static StatusOr<Flags> Parse(int argc, char** argv, int first,
                               const std::vector<FlagSpec>& specs) {
    Flags flags;
    for (int i = first; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        return Status::InvalidArgument("unexpected argument \"" +
                                       std::string(arg) +
                                       "\" (flags are --name [value])");
      }
      const std::string name = arg + 2;
      const auto spec = std::find_if(
          specs.begin(), specs.end(),
          [&name](const FlagSpec& s) { return name == s.name; });
      if (spec == specs.end()) {
        return Status::InvalidArgument("unknown flag --" + name);
      }
      if (spec->kind == FlagKind::kBool) {
        flags.values_[name] = "1";
        continue;
      }
      if (i + 1 >= argc || std::strncmp(argv[i + 1], "--", 2) == 0) {
        return Status::InvalidArgument("missing value for --" + name);
      }
      const std::string value = argv[++i];
      if (spec->kind == FlagKind::kSize) {
        uint64_t parsed = 0;
        if (!ParseUint64(value, &parsed)) {
          return Status::InvalidArgument("invalid value \"" + value +
                                         "\" for --" + name +
                                         " (expected a non-negative integer)");
        }
      } else if (spec->kind == FlagKind::kDouble) {
        double parsed = 0;
        if (!ParseDouble(value, &parsed)) {
          return Status::InvalidArgument("invalid value \"" + value +
                                         "\" for --" + name +
                                         " (expected a number)");
        }
      }
      flags.values_[name] = value;
    }
    return flags;
  }

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  size_t GetSize(const std::string& name, size_t fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    uint64_t value = 0;
    ParseUint64(it->second, &value);  // validated at Parse time
    return static_cast<size_t>(value);
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    double value = 0;
    ParseDouble(it->second, &value);  // validated at Parse time
    return value;
  }
  bool Has(const std::string& name) const { return values_.count(name) != 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// The observability + threading flags every pipeline command accepts.
std::vector<FlagSpec> WithCommonFlags(std::vector<FlagSpec> specs) {
  specs.push_back({"threads", FlagKind::kSize});
  specs.push_back({"report", FlagKind::kString});
  specs.push_back({"stats", FlagKind::kBool});
  specs.push_back({"trace", FlagKind::kString});
  specs.push_back({"trace-capacity", FlagKind::kSize});
  return specs;
}

int Usage();

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

/// A flag error: the message, then usage, exit 2.
int UsageError(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return Usage();
}

/// The crash-safety flags mine and label share. --checkpoint DIR enables
/// periodic atomic checkpoints, --checkpoint-every N sets the group size
/// (chunks/replicates/motifs per checkpoint), --resume restarts from the
/// newest valid checkpoint in DIR.
std::vector<FlagSpec> WithCheckpointFlags(std::vector<FlagSpec> specs) {
  specs.push_back({"checkpoint", FlagKind::kString});
  specs.push_back({"checkpoint-every", FlagKind::kSize});
  specs.push_back({"resume", FlagKind::kBool});
  return specs;
}

StatusOr<CheckpointOptions> CheckpointFromFlags(const Flags& flags) {
  CheckpointOptions checkpoint;
  checkpoint.dir = flags.Get("checkpoint", "");
  checkpoint.every = flags.GetSize("checkpoint-every", 1);
  checkpoint.resume = flags.Has("resume");
  if (checkpoint.resume && checkpoint.dir.empty()) {
    return Status::InvalidArgument("--resume requires --checkpoint DIR");
  }
  if (checkpoint.every == 0) {
    return Status::InvalidArgument("--checkpoint-every must be >= 1");
  }
  return checkpoint;
}

// Applies --threads N (0 = auto: LAMO_THREADS env, then hardware
// concurrency) for the stages that run on the parallel runtime.
void ApplyThreadFlag(const Flags& flags) {
  SetThreadCount(flags.GetSize("threads", 0));
}

// Turns on metric collection for one command when --report/--stats/--trace
// ask for it. Construct before the pipeline runs, call Finish() after it
// succeeds; early error returns rely on ~ObsSink / ~TraceCollector
// auto-uninstalling. The long-running daemons (serve, router) pass
// `always_collect` so a METRICS scrape sees live counters even when no
// --report/--stats flag was given — router backends in particular are
// spawned without either flag.
class ObsScope {
 public:
  explicit ObsScope(const Flags& flags, bool always_collect = false)
      : report_path_(flags.Get("report", "")),
        trace_path_(flags.Get("trace", "")),
        stats_(flags.Has("stats")) {
    if (always_collect || stats_ || !report_path_.empty()) {
      sink_.emplace();
      SetObsSink(&*sink_);
    }
    if (!trace_path_.empty()) {
      tracer_.emplace(flags.GetSize("trace-capacity",
                                    kDefaultTraceEventsPerThread));
      SetTraceCollector(&*tracer_);
    }
  }

  // Records a string fact about this run (e.g. the selected predictor
  // backend) for the report's "annotations" object.
  void Annotate(const std::string& key, const std::string& value) {
    annotations_[key] = value;
  }

  // Uninstalls the sink and tracer, prints the --stats summary, writes the
  // --report JSON and the --trace Chrome trace. Returns the command's exit
  // code (non-zero on report/trace I/O failure).
  int Finish(const std::string& command) {
    if (tracer_.has_value()) {
      SetTraceCollector(nullptr);
      const Status status = tracer_->WriteFile(trace_path_);
      if (!status.ok()) return Fail(status);
    }
    if (!sink_.has_value()) return 0;
    SetObsSink(nullptr);
    const size_t threads = ThreadCount();
    if (stats_) PrintRunSummary(*sink_, command, threads, stderr);
    if (!report_path_.empty()) {
      const Status status = WriteRunReport(*sink_, command, threads,
                                           report_path_, annotations_);
      if (!status.ok()) return Fail(status);
    }
    return 0;
  }

 private:
  std::string report_path_;
  std::string trace_path_;
  bool stats_;
  std::map<std::string, std::string> annotations_;
  std::optional<ObsSink> sink_;
  std::optional<TraceCollector> tracer_;
};

int CmdGenerate(const Flags& flags) {
  SyntheticDatasetConfig config = BindScaleConfig();
  config.num_proteins = flags.GetSize("proteins", 1500);
  config.seed = flags.GetSize("seed", 2007);
  config.copies_per_template = flags.GetSize("copies", 60);
  config.informative_threshold =
      flags.GetSize("informative", std::max<size_t>(5, config.num_proteins / 140));
  const std::string prefix = flags.Get("out", "lamo_dataset");

  const SyntheticDataset dataset = BuildSyntheticDataset(config);
  Status status = WriteEdgeList(dataset.ppi, prefix + ".graph.txt");
  if (!status.ok()) return Fail(status);
  status = WriteObo(dataset.ontology, prefix + ".obo");
  if (!status.ok()) return Fail(status);
  status = WriteAnnotations(dataset.annotations, dataset.ontology,
                            prefix + ".annotations.tsv");
  if (!status.ok()) return Fail(status);
  std::printf("wrote %s.graph.txt (%s), %s.obo (%zu terms), "
              "%s.annotations.tsv (%zu annotated proteins)\n",
              prefix.c_str(), dataset.ppi.ToString().c_str(), prefix.c_str(),
              dataset.ontology.num_terms(), prefix.c_str(),
              dataset.annotations.CountAnnotated());
  return 0;
}

int CmdStats(const Flags& flags) {
  auto graph = ReadEdgeList(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  std::printf("%s\n", graph->ToString().c_str());
  std::printf("components: %zu (largest %zu)\n", CountComponents(*graph),
              LargestComponent(*graph).size());
  std::printf("mean degree: %.2f, max degree: %zu\n", MeanDegree(*graph),
              graph->MaxDegree());
  std::printf("triangles: %zu, clustering coefficient: %.4f\n",
              CountTriangles(*graph), GlobalClusteringCoefficient(*graph));
  return 0;
}

int CmdMine(const Flags& flags) {
  ApplyThreadFlag(flags);
  auto checkpoint = CheckpointFromFlags(flags);
  if (!checkpoint.ok()) return Fail(checkpoint.status());
  const std::string algo = flags.Get("algo", "levelwise");
  if (algo != "levelwise" && algo != "esu") {
    return UsageError(
        Status::InvalidArgument("--algo must be levelwise or esu"));
  }
  if (algo == "esu" && flags.Has("beam")) {
    // ESU enumerates every class, so a beam would be silently ignored.
    return UsageError(
        Status::InvalidArgument("--beam applies to --algo levelwise"));
  }
  ObsScope obs(flags);
  const auto graph = [&] {
    const ScopedTimer timer("load");
    return ReadEdgeList(flags.Get("graph", ""));
  }();
  if (!graph.ok()) return Fail(graph.status());

  std::vector<Motif> motifs;
  // Both routes run the same uniqueness ensemble on the same flags.
  UniquenessConfig uniqueness;
  uniqueness.num_random_networks = flags.GetSize("networks", 10);
  uniqueness.seed = flags.GetSize("seed", 42);
  const double threshold = flags.GetDouble("uniqueness", 0.95);
  const size_t min_size = flags.GetSize("min-size", 3);
  const size_t max_size = flags.GetSize("max-size", 5);
  const size_t min_freq = flags.GetSize("min-freq", 40);
  if (algo == "esu") {
    // FANMOD route: exhaustive per-size ESU enumeration + ensemble
    // uniqueness, one pass per size in [min-size, max-size].
    const ScopedTimer timer("mine");
    if (max_size > kMaxPatternVertices) {
      return Fail(Status::InvalidArgument(
          "--algo esu supports --max-size up to " +
          std::to_string(kMaxPatternVertices) + " (got " +
          std::to_string(max_size) + "); --algo levelwise grows past it"));
    }
    EsuMotifConfig config;
    config.min_frequency = min_freq;
    config.uniqueness = uniqueness;
    config.uniqueness_threshold = threshold;
    config.checkpoint = *checkpoint;
    for (size_t size = min_size; size <= max_size; ++size) {
      config.size = size;
      auto per_size = FindNetworkMotifsEsu(*graph, config);
      for (auto& motif : per_size) motifs.push_back(std::move(motif));
    }
  } else {
    const ScopedTimer timer("mine");
    MotifFindingConfig config;
    config.miner.min_size = min_size;
    config.miner.max_size = max_size;
    config.miner.min_frequency = min_freq;
    config.miner.max_patterns_per_level = flags.GetSize("beam", 60);
    config.miner.checkpoint = *checkpoint;
    config.uniqueness = uniqueness;
    config.uniqueness_threshold = threshold;
    motifs = FindNetworkMotifs(*graph, config);
  }
  std::printf("found %zu network motifs\n", motifs.size());

  {
    const ScopedTimer timer("write");
    const Status status = WriteMotifs(motifs, flags.Get("out", "motifs.txt"));
    if (!status.ok()) return Fail(status);
  }
  std::printf("wrote %s\n", flags.Get("out", "motifs.txt").c_str());
  return obs.Finish("mine");
}

int CmdLabel(const Flags& flags) {
  ApplyThreadFlag(flags);
  auto checkpoint = CheckpointFromFlags(flags);
  if (!checkpoint.ok()) return Fail(checkpoint.status());
  ObsScope obs(flags);
  std::optional<ScopedTimer> load_timer;
  load_timer.emplace("load");
  auto graph = ReadEdgeList(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  auto ontology = ReadObo(flags.Get("obo", ""));
  if (!ontology.ok()) return Fail(ontology.status());
  auto annotations = ReadAnnotations(flags.Get("annotations", ""), *ontology);
  if (!annotations.ok()) return Fail(annotations.status());
  auto motifs = ReadMotifs(flags.Get("motifs", ""));
  if (!motifs.ok()) return Fail(motifs.status());
  load_timer.reset();

  const TermWeights weights = TermWeights::Compute(*ontology, *annotations);
  InformativeConfig informative_config;
  informative_config.min_direct_proteins = flags.GetSize(
      "informative", std::max<size_t>(5, graph->num_vertices() / 140));
  const InformativeClasses informative =
      InformativeClasses::Compute(*ontology, *annotations, informative_config);

  LaMoFinder finder(*ontology, weights, informative, *annotations);
  LaMoFinderConfig config;
  config.sigma = flags.GetSize("sigma", 10);
  config.max_occurrences = flags.GetSize("max-occurrences", 300);
  config.checkpoint = *checkpoint;
  const auto labeled = [&] {
    const ScopedTimer timer("label");
    return finder.LabelAll(*motifs, config);
  }();
  std::printf("labeled %zu motifs -> %zu labeled motifs\n", motifs->size(),
              labeled.size());

  {
    const ScopedTimer timer("write");
    const Status status = WriteLabeledMotifs(labeled, *ontology,
                                             flags.Get("out", "labeled.txt"));
    if (!status.ok()) return Fail(status);
  }
  std::printf("wrote %s\n", flags.Get("out", "labeled.txt").c_str());
  return obs.Finish("label");
}

/// Resolves the --predictor flag (default "lms") against the backend
/// registry. False means the name is not registered; the caller prints usage
/// and exits 2, matching every other malformed-flag path.
bool ResolvePredictorFlag(const Flags& flags, std::string* name) {
  *name = flags.Get("predictor", "lms");
  if (IsRegisteredPredictor(*name)) return true;
  std::fprintf(stderr, "error: unknown --predictor \"%s\" (registered: %s)\n",
               name->c_str(), PredictorNamesUsage().c_str());
  return false;
}

int CmdPredict(const Flags& flags) {
  ApplyThreadFlag(flags);
  ObsScope obs(flags);
  std::string predictor_name;
  if (!ResolvePredictorFlag(flags, &predictor_name)) return Usage();
  obs.Annotate("predictor", predictor_name);
  std::optional<ScopedTimer> load_timer;
  load_timer.emplace("load");
  auto graph = ReadEdgeList(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  auto ontology = ReadObo(flags.Get("obo", ""));
  if (!ontology.ok()) return Fail(ontology.status());
  auto annotations = ReadAnnotations(flags.Get("annotations", ""), *ontology);
  if (!annotations.ok()) return Fail(annotations.status());
  auto labeled = ReadLabeledMotifs(flags.Get("labeled", ""), *ontology);
  if (!labeled.ok()) return Fail(labeled.status());
  load_timer.reset();

  // Closed before obs.Finish() so the phase makes it into report and trace.
  std::optional<ScopedTimer> predict_timer;
  predict_timer.emplace("predict");
  // Categories: the root's children; protein categories via the true-path.
  PredictionContext context;
  context.ppi = &*graph;
  const TermId root = ontology->Roots()[0];
  context.categories.assign(ontology->Children(root).begin(),
                            ontology->Children(root).end());
  context.protein_categories.resize(graph->num_vertices());
  for (ProteinId p = 0; p < graph->num_vertices(); ++p) {
    std::vector<TermId>& cats = context.protein_categories[p];
    for (TermId t : annotations->TermsOf(p)) {
      for (TermId c : context.categories) {
        if (ontology->IsAncestorOrEqual(c, t)) {
          if (!std::binary_search(cats.begin(), cats.end(), c)) {
            cats.insert(std::lower_bound(cats.begin(), cats.end(), c), c);
          }
        }
      }
    }
  }

  PredictorInputs inputs;
  inputs.context = &context;
  inputs.ontology = &*ontology;
  inputs.motifs = &*labeled;
  auto predictor = MakePredictor(predictor_name, inputs);
  if (!predictor.ok()) return Fail(predictor.status());
  const ProteinId protein =
      static_cast<ProteinId>(flags.GetSize("protein", 0));
  if (protein >= graph->num_vertices()) {
    return Fail(Status::InvalidArgument("--protein out of range"));
  }
  // Rendered through the same formatter the serve daemon uses for PREDICT,
  // so online and offline answers are byte-identical by construction.
  const size_t top_k = flags.GetSize("top-k", 3);
  for (const std::string& line : PredictionOutputLines(
           context, *ontology, **predictor, protein, top_k)) {
    std::printf("%s\n", line.c_str());
  }
  predict_timer.reset();
  return obs.Finish("predict");
}

/// `pack --apply-deltas FILE`: folds a file of `ADDEDGE u v` / `DELEDGE u v`
/// lines (blank lines and `#` comments skipped — the journal grammar) into
/// the freshly built snapshot through the same UpdateEngine the serve daemon
/// uses, so the packed file is byte-identical to what a live server reaches
/// after applying the same deltas.
Status ApplyDeltaFile(const std::string& path, Snapshot* snapshot) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open delta file " + path);
  }
  UpdateEngine engine(snapshot);
  std::string line;
  size_t line_no = 0;
  size_t applied = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (IsDeltaComment(line)) continue;
    auto entry = ParseDeltaLine(line);
    if (!entry.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + entry.status().message());
    }
    UpdateResult result;
    const Status status = engine.Apply(entry->add, entry->u, entry->v,
                                       &result);
    if (!status.ok()) {
      return Status::InvalidArgument(path + ":" + std::to_string(line_no) +
                                     ": " + status.message());
    }
    ++applied;
  }
  std::printf("applied %zu deltas from %s\n", applied, path.c_str());
  return Status::OK();
}

int CmdPack(const Flags& flags) {
  ApplyThreadFlag(flags);
  ObsScope obs(flags);
  std::optional<ScopedTimer> load_timer;
  load_timer.emplace("load");
  auto graph = ReadEdgeList(flags.Get("graph", ""));
  if (!graph.ok()) return Fail(graph.status());
  auto ontology = ReadObo(flags.Get("obo", ""));
  if (!ontology.ok()) return Fail(ontology.status());
  auto annotations = ReadAnnotations(flags.Get("annotations", ""), *ontology);
  if (!annotations.ok()) return Fail(annotations.status());
  auto labeled = ReadLabeledMotifs(flags.Get("labeled", ""), *ontology);
  if (!labeled.ok()) return Fail(labeled.status());
  load_timer.reset();

  InformativeConfig informative_config;
  informative_config.min_direct_proteins = flags.GetSize(
      "informative", std::max<size_t>(5, graph->num_vertices() / 140));
  auto snapshot = [&] {
    const ScopedTimer timer("build");
    return BuildSnapshot(std::move(*graph), std::move(*ontology),
                         std::move(*annotations), std::move(*labeled),
                         informative_config);
  }();
  // Deltas fold in before sharding so shard files carry the updated state
  // too.
  const std::string deltas = flags.Get("apply-deltas", "");
  if (!deltas.empty()) {
    const ScopedTimer timer("apply-deltas");
    const Status status = ApplyDeltaFile(deltas, &snapshot);
    if (!status.ok()) return Fail(status);
  }
  const std::string out = flags.Get("out", "model.lamosnap");
  {
    const ScopedTimer timer("write");
    const Status status = WriteSnapshot(snapshot, out);
    if (!status.ok()) return Fail(status);
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(out, ec);
  std::printf("packed %zu proteins, %zu terms, %zu labeled motifs -> %s "
              "(%llu bytes)\n",
              snapshot.graph.num_vertices(), snapshot.ontology.num_terms(),
              snapshot.motifs.size(), out.c_str(),
              ec ? 0ull : static_cast<unsigned long long>(bytes));

  // --shards N additionally writes <out>.shard<i>ofN for the router's
  // sharded placement: shard i answers PREDICT/MOTIFS byte-identically to
  // the full snapshot for every protein with p % N == i.
  const size_t num_shards = flags.GetSize("shards", 1);
  if (num_shards > 1) {
    if (num_shards > 256) {
      return Fail(Status::InvalidArgument("--shards must be <= 256"));
    }
    const ScopedTimer timer("shards");
    for (size_t i = 0; i < num_shards; ++i) {
      const Snapshot shard =
          MakeShard(snapshot, static_cast<uint32_t>(i),
                    static_cast<uint32_t>(num_shards));
      const std::string shard_path = ShardSnapshotPath(
          out, static_cast<uint32_t>(i), static_cast<uint32_t>(num_shards));
      const Status status = WriteSnapshot(shard, shard_path);
      if (!status.ok()) return Fail(status);
      std::error_code shard_ec;
      const auto shard_bytes = std::filesystem::file_size(shard_path, shard_ec);
      std::printf("  shard %zu/%zu -> %s (%llu bytes)\n", i, num_shards,
                  shard_path.c_str(),
                  shard_ec ? 0ull
                           : static_cast<unsigned long long>(shard_bytes));
    }
  }
  return obs.Finish("pack");
}

/// Opens the sampled JSONL access log configured by --access-log /
/// --access-sample / --slow-ms, or returns nullptr when --access-log is
/// absent. --access-sample 0 is normalized to 1 (log everything) so a
/// mistyped zero cannot divide-by-zero the sampler.
StatusOr<std::unique_ptr<AccessLog>> OpenAccessLog(const Flags& flags) {
  const std::string path = flags.Get("access-log", "");
  if (path.empty()) return std::unique_ptr<AccessLog>();
  AccessLogOptions options;
  options.path = path;
  options.sample = std::max<uint64_t>(1, flags.GetSize("access-sample", 1));
  options.slow_ms = flags.GetSize("slow-ms", 0);
  return AccessLog::Open(options);
}

/// The TCP front's flags, shared by serve and router.
ServeOptions ServeOptionsFromFlags(const Flags& flags) {
  ServeOptions options;
  options.port = static_cast<uint16_t>(flags.GetSize("port", 0));
  options.request_timeout_ms =
      flags.GetSize("request-timeout-ms", options.request_timeout_ms);
  options.idle_timeout_ms =
      flags.GetSize("idle-timeout-ms", options.idle_timeout_ms);
  options.max_conns = flags.GetSize("max-conns", options.max_conns);
  options.max_line_bytes =
      flags.GetSize("max-line-bytes", options.max_line_bytes);
  options.log = stdout;
  return options;
}

int CmdServe(const Flags& flags) {
  ApplyThreadFlag(flags);
  // Always collect: the METRICS verb reads the process-wide sink, and
  // backends spawned by the router never pass --stats/--report.
  ObsScope obs(flags, /*always_collect=*/true);
  std::optional<ScopedTimer> load_timer;
  load_timer.emplace("load");
  auto snapshot = ReadSnapshot(flags.Get("snapshot", ""));
  if (!snapshot.ok()) return Fail(snapshot.status());
  load_timer.reset();

  std::string predictor_name;
  if (!ResolvePredictorFlag(flags, &predictor_name)) return Usage();
  obs.Annotate("predictor", predictor_name);
  const size_t cache_capacity =
      flags.Has("no-cache")
          ? 0
          : flags.GetSize("cache-capacity", kDefaultServeCacheCapacity);
  // "init": everything between the loaded snapshot and the first request —
  // the service and its predictor, the --predictor swap, journal replay.
  std::optional<ScopedTimer> init_timer;
  init_timer.emplace("init");
  SnapshotService service(std::move(*snapshot), cache_capacity);
  if (predictor_name != "lms") {
    const Status status = service.UsePredictor(predictor_name);
    if (!status.ok()) return Fail(status);
  }
  // Journal before serving starts: replay of a pre-existing journal must
  // finish before the first query, and AttachJournal is not synchronized
  // against concurrent Handle calls.
  const std::string journal_path = flags.Get("journal", "");
  if (!journal_path.empty()) {
    const Status status = service.AttachJournal(journal_path);
    if (!status.ok()) return Fail(status);
    std::fprintf(stderr, "lamo serve: journal %s attached (%llu updates)\n",
                 journal_path.c_str(),
                 static_cast<unsigned long long>(
                     service.stats().updates.load()));
  }
  init_timer.reset();
  auto access_log = OpenAccessLog(flags);
  if (!access_log.ok()) return Fail(access_log.status());
  if (*access_log != nullptr) service.set_access_log(access_log->get());
  // Load banner on stderr: in --stdin mode stdout carries only responses.
  std::fprintf(stderr,
               "lamo serve: loaded %s (%zu proteins, %zu terms, %zu labeled "
               "motifs, cache capacity %zu, predictor %s)\n",
               flags.Get("snapshot", "").c_str(),
               service.snapshot().graph.num_vertices(),
               service.snapshot().ontology.num_terms(),
               service.snapshot().motifs.size(), cache_capacity,
               service.predictor_name().c_str());

  // --watch-deltas FILE: a background poller tails the file for complete
  // `ADDEDGE u v` / `DELEDGE u v` lines (blank/# lines skipped) and feeds
  // each through the ordinary Handle path — same validation, journaling,
  // cache invalidation and update.* metrics as a TCP mutation. A torn
  // trailing line (writer mid-append) waits for its newline; a shrunken
  // file (rotation) restarts the tail from the top.
  std::atomic<bool> watch_stop{false};
  std::thread watcher;
  const std::string watch_path = flags.Get("watch-deltas", "");
  if (!watch_path.empty()) {
    const uint64_t interval_ms = flags.GetSize("watch-interval-ms", 200);
    watcher = std::thread([&service, watch_path, interval_ms, &watch_stop] {
      uint64_t offset = 0;
      while (!watch_stop.load(std::memory_order_acquire)) {
        std::ifstream in(watch_path, std::ios::binary);
        if (in.is_open()) {
          in.seekg(0, std::ios::end);
          const uint64_t size = static_cast<uint64_t>(in.tellg());
          if (size < offset) offset = 0;  // truncated/rotated: re-tail
          if (size > offset) {
            in.seekg(static_cast<std::streamoff>(offset));
            std::string pending(size - offset, '\0');
            in.read(pending.data(),
                    static_cast<std::streamsize>(pending.size()));
            size_t consumed = 0;
            size_t newline;
            while ((newline = pending.find('\n', consumed)) !=
                   std::string::npos) {
              std::string line = pending.substr(consumed, newline - consumed);
              if (!line.empty() && line.back() == '\r') line.pop_back();
              consumed = newline + 1;
              if (!IsDeltaComment(line)) {
                std::string response = service.Handle(line);
                while (!response.empty() &&
                       (response.back() == '\n' || response.back() == '\r')) {
                  response.pop_back();
                }
                std::replace(response.begin(), response.end(), '\n', ' ');
                std::fprintf(stderr, "lamo serve: watch-deltas \"%s\": %s\n",
                             line.c_str(), response.c_str());
              }
            }
            offset += consumed;
          }
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
      }
    });
    std::fprintf(stderr,
                 "lamo serve: watching %s for deltas every %llu ms\n",
                 watch_path.c_str(),
                 static_cast<unsigned long long>(interval_ms));
  }

  std::optional<ScopedTimer> serve_timer;
  serve_timer.emplace("serve");
  Status status;
  if (flags.Has("stdin")) {
    status = RunStreamServer(&service, std::cin, std::cout);
  } else {
    status = RunTcpServer(&service, ServeOptionsFromFlags(flags));
  }
  if (watcher.joinable()) {
    watch_stop.store(true, std::memory_order_release);
    watcher.join();
  }
  serve_timer.reset();
  if (!status.ok()) return Fail(status);
  return obs.Finish("serve");
}

/// Absolute path of this executable, exec'd again as `lamo serve` for each
/// router backend so a relocated or renamed binary still supervises the
/// right code.
StatusOr<std::string> SelfExePath() {
  std::error_code ec;
  const auto path = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) return Status::IoError("cannot resolve /proc/self/exe");
  return path.string();
}

int CmdRouter(const Flags& flags) {
  ApplyThreadFlag(flags);
  // Always collect, like serve: METRICS renders the router's own registry
  // and re-exports per-backend scrapes.
  ObsScope obs(flags, /*always_collect=*/true);

  const std::string mode = flags.Get("mode", "sharded");
  if (mode != "sharded" && mode != "replicated") {
    return Fail(
        Status::InvalidArgument("--mode must be sharded or replicated"));
  }
  auto binary = SelfExePath();
  if (!binary.ok()) return Fail(binary.status());

  ClusterOptions cluster_options;
  cluster_options.binary = *binary;
  cluster_options.snapshot = flags.Get("snapshot", "");
  cluster_options.sharded = mode == "sharded";
  cluster_options.num_backends = flags.GetSize("backends", 2);
  cluster_options.retry_deadline_ms =
      flags.GetSize("retry-deadline-ms", cluster_options.retry_deadline_ms);
  cluster_options.backend_access_log = flags.Get("backend-access-log", "");
  cluster_options.backend_access_sample =
      std::max<uint64_t>(1, flags.GetSize("access-sample", 1));
  cluster_options.backend_slow_ms = flags.GetSize("slow-ms", 0);
  // --predictors NAME[,NAME...] assigns backend i the i-th name (mod the
  // list), so `--predictors lms,gds` A/B-splits a replicated cluster across
  // two backends. Every name must be registered.
  if (flags.Has("predictors")) {
    for (const std::string& name : Split(flags.Get("predictors", ""), ',')) {
      if (!IsRegisteredPredictor(name)) {
        std::fprintf(stderr,
                     "error: unknown predictor \"%s\" in --predictors "
                     "(registered: %s)\n",
                     name.c_str(), PredictorNamesUsage().c_str());
        return Usage();
      }
      cluster_options.predictors.push_back(name);
    }
  }
  cluster_options.log = stdout;
  if (cluster_options.num_backends == 0 || cluster_options.num_backends > 64) {
    return Fail(Status::InvalidArgument("--backends must be in [1, 64]"));
  }
  // Fail with a pointer to `pack --shards` before spawning anything when
  // the shard files are missing.
  Cluster cluster(cluster_options);
  for (size_t i = 0; i < cluster_options.num_backends; ++i) {
    const std::string path =
        cluster.SnapshotPathFor(cluster_options.snapshot, i);
    if (!std::filesystem::exists(path)) {
      return Fail(Status::NotFound(
          path + " not found" +
          (cluster_options.sharded && cluster_options.num_backends > 1
               ? " (create shard files with: lamo pack ... --shards " +
                     std::to_string(cluster_options.num_backends) + ")"
               : "")));
    }
  }

  std::optional<ScopedTimer> start_timer;
  start_timer.emplace("start");
  const Status started = cluster.Start();
  if (!started.ok()) return Fail(started);
  start_timer.reset();
  std::fprintf(stderr,
               "lamo router: %zu %s backend(s) up on %s\n",
               cluster.size(), mode.c_str(),
               cluster_options.snapshot.c_str());

  RouterService service(&cluster, cluster_options.sharded);
  auto access_log = OpenAccessLog(flags);
  if (!access_log.ok()) return Fail(access_log.status());
  if (*access_log != nullptr) service.set_access_log(access_log->get());
  ServeOptions options = ServeOptionsFromFlags(flags);
  options.name = "lamo router";
  options.on_sighup = [&service] { service.ReloadAsync(); };

  std::optional<ScopedTimer> serve_timer;
  serve_timer.emplace("router");
  const Status status = RunTcpServer(&service, options);
  serve_timer.reset();
  cluster.Stop();
  if (!status.ok()) return Fail(status);
  return obs.Finish("router");
}

/// Prints every registered fault point, one per line. The crash-matrix test
/// iterates this list so a new fault point without test coverage fails CI
/// instead of silently shipping untested.
int CmdFaultPoints(const Flags&) {
  for (const std::string& name : FaultPointNames()) {
    std::printf("%s\n", name.c_str());
  }
  return 0;
}

int Usage() {
  // Predictor names render from the registry so this text cannot drift from
  // the factories (the same string validates --predictor/--predictors).
  const std::string predictors = PredictorNamesUsage();
  std::fprintf(
      stderr,
      "usage: lamo <command> [--flag value ...]\n"
      "commands:\n"
      "  generate  --proteins N --seed S --copies C --out PREFIX\n"
      "  stats     --graph FILE\n"
      "  mine      --graph FILE --algo levelwise|esu --min-size K --max-size K\n"
      "            --min-freq F --networks R --uniqueness U --seed S\n"
      "            --beam B (levelwise only) --threads N --out FILE\n"
      "  label     --graph FILE --obo FILE --annotations FILE --motifs FILE\n"
      "            --sigma S --max-occurrences M --informative T --threads N\n"
      "            --out FILE\n"
      "  predict   --graph FILE --obo FILE --annotations FILE\n"
      "            --labeled FILE --protein ID --top-k K --threads N\n"
      "            --predictor %s\n"
      "  pack      --graph FILE --obo FILE --annotations FILE --labeled FILE\n"
      "            --informative T --shards N --apply-deltas FILE\n"
      "            --out FILE.lamosnap\n"
      "  serve     --snapshot FILE.lamosnap [--port P | --stdin]\n"
      "            --predictor %s\n"
      "            --cache-capacity N --no-cache --threads N\n"
      "            --request-timeout-ms MS --idle-timeout-ms MS\n"
      "            --max-conns N --max-line-bytes B\n"
      "            --access-log FILE --access-sample N --slow-ms MS\n"
      "            --journal FILE --watch-deltas FILE --watch-interval-ms MS\n"
      "  router    --snapshot FILE.lamosnap --backends N\n"
      "            --predictors NAME[,NAME...]   (NAME: %s)\n"
      "            --mode sharded|replicated --port P\n"
      "            --retry-deadline-ms MS --request-timeout-ms MS\n"
      "            --idle-timeout-ms MS --max-conns N --max-line-bytes B\n"
      "            --access-log FILE --access-sample N --slow-ms MS\n"
      "            --backend-access-log PREFIX\n"
      "  fault-points   (list registered fault-injection points)\n"
      "Unknown flags, missing flag values and malformed numbers are rejected.\n"
      "mine and label are crash-safe: --checkpoint DIR writes atomic progress\n"
      "checkpoints (every --checkpoint-every N chunks/replicates/motifs, see\n"
      "docs/FORMATS.md), and --resume restarts from the newest valid\n"
      "checkpoint; a resumed run produces byte-identical output. The serve\n"
      "daemon runs a thread per connection and sheds abusive clients: lines\n"
      "unfinished past --request-timeout-ms get ERR DeadlineExceeded, silent\n"
      "connections past --idle-timeout-ms are reaped, request lines over\n"
      "--max-line-bytes get ERR InvalidArgument, and past --max-conns live\n"
      "connections new clients wait in the TCP backlog (0 disables each).\n"
      "LAMO_FAULT=point:count[:action] injects a deterministic fault at the\n"
      "Nth hit of a fault point (see lamo fault-points) for crash testing.\n"
      "mine/label/predict/pack/serve run on the parallel runtime: --threads 0\n"
      "(default) resolves via LAMO_THREADS, then hardware concurrency;\n"
      "--threads 1 is fully serial. Output is identical for any thread count.\n"
      "They also take --report FILE (write a JSON run report: phase wall\n"
      "times, counters, latency histograms, per-worker breakdown; schema in\n"
      "docs/FORMATS.md), --stats (human summary of the same on stderr), and\n"
      "--trace FILE (write a Chrome trace-event JSON of pipeline spans,\n"
      "loadable in chrome://tracing or ui.perfetto.dev; per-thread ring\n"
      "capacity via --trace-capacity EVENTS, default 65536 — overflow drops\n"
      "oldest events and counts them in trace.dropped). Summarize a trace\n"
      "offline with lamo_trace_summary.\n"
      "pack compiles ontology+annotations+labeled motifs+network into one\n"
      "checksummed binary snapshot; serve answers PREDICT/MOTIFS/TERMINFO/\n"
      "HEALTH/STATS/METRICS queries over TCP on 127.0.0.1 (--port 0 picks a\n"
      "free port) or line-by-line on stdin (--stdin); see docs/FORMATS.md\n"
      "for the snapshot layout and the wire protocol. METRICS renders live\n"
      "counters, histograms and 10s/60s window rates in Prometheus text\n"
      "exposition format (validate with lamo_metrics_check). --access-log\n"
      "FILE appends one JSON line per served request (every --access-sample\n"
      "Nth; requests at or over --slow-ms always) with the request id, verb,\n"
      "status, latency and span breakdown. Benchmark a running server with\n"
      "lamo_bench_client; `lamo_bench_client --top` polls STATS+METRICS\n"
      "into a live per-backend table.\n"
      "router fronts N supervised serve backends with the same wire\n"
      "protocol: pack --shards N splits the per-protein index into\n"
      "FILE.lamosnap.shard<i>ofN files and --mode sharded routes by\n"
      "protein id; --mode replicated puts whole snapshots behind\n"
      "consistent hashing with least-loaded failover. Dead backends are\n"
      "respawned, a hung one costs a request --retry-deadline-ms and an ERR,\n"
      "and `RELOAD PATH` (or SIGHUP) rolls every backend onto a new\n"
      "snapshot one at a time without failing in-flight requests;\n"
      "aggregated HEALTH/STATS report per-backend snapshot checksums. The\n"
      "router stamps each forwarded query with a `#<id>` request-ID token\n"
      "so router and backend access logs correlate; METRICS on the router\n"
      "additionally scrapes every backend and re-exports its series with\n"
      "backend=/shard= labels. --backend-access-log PREFIX gives backend i\n"
      "its own access log at PREFIX.<i>.\n"
      "predict and serve answer through a pluggable predictor backend\n"
      "(--predictor %s): lms votes from labeled motifs (the paper's\n"
      "method), gds by graphlet-degree-signature similarity, role by\n"
      "iterative role similarity; for the same backend, served PREDICT\n"
      "responses are byte-identical to offline predict output. gds/role\n"
      "serve from the snapshot's precomputed predictor section.\n"
      "router --predictors lms,gds interleaves backends across predictors\n"
      "for A/B serving; STATS shows each backend's active predictor.\n"
      "serve also accepts live edge updates: ADDEDGE/DELEDGE patch the\n"
      "in-memory interactome incrementally (motif occurrences, frequencies,\n"
      "strengths, site index, predictor matrices) and PREDICT_EDGE scores a\n"
      "candidate interaction by weighted motif completion. --journal FILE\n"
      "write-ahead-logs every update (fsync before apply) and replays it on\n"
      "restart; --watch-deltas FILE tails a delta file for the same grammar\n"
      "every --watch-interval-ms (default 200). pack --apply-deltas FILE\n"
      "folds a delta file into the snapshot through the same engine, so a\n"
      "live-updated server and a repacked one answer byte-identically. The\n"
      "router fans ADDEDGE/DELEDGE out to every backend and routes\n"
      "PREDICT_EDGE like PREDICT.\n",
      predictors.c_str(), predictors.c_str(), predictors.c_str(),
      predictors.c_str());
  return 2;
}

struct Command {
  const char* name;
  std::vector<FlagSpec> flags;
  int (*run)(const Flags&);
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> kCommands = {
      {"generate",
       {{"proteins", FlagKind::kSize},
        {"seed", FlagKind::kSize},
        {"copies", FlagKind::kSize},
        {"informative", FlagKind::kSize},
        {"out", FlagKind::kString}},
       CmdGenerate},
      {"stats", {{"graph", FlagKind::kString}}, CmdStats},
      {"mine",
       WithCheckpointFlags(
           WithCommonFlags({{"graph", FlagKind::kString},
                            {"algo", FlagKind::kString},
                            {"min-size", FlagKind::kSize},
                            {"max-size", FlagKind::kSize},
                            {"min-freq", FlagKind::kSize},
                            {"networks", FlagKind::kSize},
                            {"uniqueness", FlagKind::kDouble},
                            {"beam", FlagKind::kSize},
                            {"seed", FlagKind::kSize},
                            {"out", FlagKind::kString}})),
       CmdMine},
      {"label",
       WithCheckpointFlags(
           WithCommonFlags({{"graph", FlagKind::kString},
                            {"obo", FlagKind::kString},
                            {"annotations", FlagKind::kString},
                            {"motifs", FlagKind::kString},
                            {"sigma", FlagKind::kSize},
                            {"max-occurrences", FlagKind::kSize},
                            {"informative", FlagKind::kSize},
                            {"out", FlagKind::kString}})),
       CmdLabel},
      {"predict",
       WithCommonFlags({{"graph", FlagKind::kString},
                        {"obo", FlagKind::kString},
                        {"annotations", FlagKind::kString},
                        {"labeled", FlagKind::kString},
                        {"protein", FlagKind::kSize},
                        {"top-k", FlagKind::kSize},
                        {"predictor", FlagKind::kString}}),
       CmdPredict},
      {"pack",
       WithCommonFlags({{"graph", FlagKind::kString},
                        {"obo", FlagKind::kString},
                        {"annotations", FlagKind::kString},
                        {"labeled", FlagKind::kString},
                        {"informative", FlagKind::kSize},
                        {"shards", FlagKind::kSize},
                        {"apply-deltas", FlagKind::kString},
                        {"out", FlagKind::kString}}),
       CmdPack},
      {"serve",
       WithCommonFlags({{"snapshot", FlagKind::kString},
                        {"predictor", FlagKind::kString},
                        {"port", FlagKind::kSize},
                        {"stdin", FlagKind::kBool},
                        {"cache-capacity", FlagKind::kSize},
                        {"no-cache", FlagKind::kBool},
                        {"request-timeout-ms", FlagKind::kSize},
                        {"idle-timeout-ms", FlagKind::kSize},
                        {"max-conns", FlagKind::kSize},
                        {"max-line-bytes", FlagKind::kSize},
                        {"access-log", FlagKind::kString},
                        {"access-sample", FlagKind::kSize},
                        {"slow-ms", FlagKind::kSize},
                        {"journal", FlagKind::kString},
                        {"watch-deltas", FlagKind::kString},
                        {"watch-interval-ms", FlagKind::kSize}}),
       CmdServe},
      {"router",
       WithCommonFlags({{"snapshot", FlagKind::kString},
                        {"predictors", FlagKind::kString},
                        {"backends", FlagKind::kSize},
                        {"mode", FlagKind::kString},
                        {"port", FlagKind::kSize},
                        {"retry-deadline-ms", FlagKind::kSize},
                        {"request-timeout-ms", FlagKind::kSize},
                        {"idle-timeout-ms", FlagKind::kSize},
                        {"max-conns", FlagKind::kSize},
                        {"max-line-bytes", FlagKind::kSize},
                        {"access-log", FlagKind::kString},
                        {"access-sample", FlagKind::kSize},
                        {"slow-ms", FlagKind::kSize},
                        {"backend-access-log", FlagKind::kString}}),
       CmdRouter},
      {"fault-points", {}, CmdFaultPoints},
  };
  return kCommands;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  for (const Command& cmd : Commands()) {
    if (command != cmd.name) continue;
    auto flags = Flags::Parse(argc, argv, 2, cmd.flags);
    if (!flags.ok()) return UsageError(flags.status());
    return cmd.run(*flags);
  }
  std::fprintf(stderr, "error: unknown command \"%s\"\n", command.c_str());
  return Usage();
}

}  // namespace
}  // namespace lamo

int main(int argc, char** argv) { return lamo::Main(argc, argv); }
