// perfbench_layers — in-process layer driver for the traced benchmark run.
//
//   perfbench_layers pipeline --dir D --algo levelwise|esu --min-freq F
//                             --threads N --out SPANS.json
//   perfbench_layers requests --dir D --snapshot FILE --requests FILE
//                             --threads N --out SPANS.json
//
// `pipeline` replays generate's outputs in D (run.graph.txt, run.obo,
// run.annotations.tsv) through the same public calls `lamo mine`, `label`
// and `pack` make, and `requests` replays a request stream (one request
// line per line) through SnapshotService::Handle and, beside it, through
// the public calls Handle is built from. Each call is wrapped in a span:
// name, start, end, parent span and request id. Spans stay in memory and
// are written at exit as JSON, together with the run report of the obs
// registry (counters and histograms) and the bytes-identity checks below.
//
// Checks: the replayed pipeline's motifs, labeled motifs and packed snapshot
// must be byte-identical to the CLI's run.motifs.txt, run.labeled.txt and
// run.lamosnap in D; every replayed Handle answer must be OK, and the
// component path (cache hit, or FormatOkResponse of the payload) must give
// back the same bytes.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "core/labeled_motif.h"
#include "core/lamofinder.h"
#include "graph/graph_index.h"
#include "io/edge_list.h"
#include "io/gaf.h"
#include "io/motif_io.h"
#include "io/obo.h"
#include "motif/esu_finder.h"
#include "motif/miner.h"
#include "motif/uniqueness.h"
#include "obs/obs.h"
#include "obs/run_report.h"
#include "ontology/informative.h"
#include "ontology/weights.h"
#include "parallel/parallel_for.h"
#include "predict/gds.h"
#include "predict/registry.h"
#include "predict/role_similarity.h"
#include "serve/cache.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "serve/update.h"

namespace lamo {
namespace {

using Clock = std::chrono::steady_clock;

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;
  uint64_t request = 0;
};

class SpanLog {
 public:
  int64_t Open(const std::string& name, int64_t parent, uint64_t request) {
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, Now(), 0, parent, request});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t id) {
    const int64_t now = Now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<size_t>(id)].end_ns = now;
  }
  std::string Json() const {
    const std::lock_guard<std::mutex> lock(mu_);
    std::string out = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      char buffer[160];
      std::snprintf(buffer, sizeof buffer, "%s[\"%s\",%lld,%lld,%lld,%llu]",
                    i == 0 ? "" : ",", s.name.c_str(),
                    static_cast<long long>(s.start_ns),
                    static_cast<long long>(s.end_ns),
                    static_cast<long long>(s.parent),
                    static_cast<unsigned long long>(s.request));
      out += buffer;
    }
    return out + "]";
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                start_)
        .count();
  }
  const Clock::time_point start_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

/// One span, closed at scope exit.
class Span {
 public:
  explicit Span(const std::string& name, int64_t parent = -1,
                uint64_t request = 0)
      : id_(Spans().Open(name, parent, request)) {}
  ~Span() { Spans().Close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  int64_t id() const { return id_; }

 private:
  int64_t id_;
};

template <typename T>
T Must(StatusOr<T> value, const char* what) {
  if (!value.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, value.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(value).value();
}

void MustOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "%s: %s\n", what, status.ToString().c_str());
    std::exit(1);
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

struct Flags {
  std::map<std::string, std::string> values;
  std::string Get(const std::string& key, const std::string& fallback) const {
    const auto it = values.find(key);
    return it == values.end() ? fallback : it->second;
  }
};

// Mirrors `lamo mine`, `lamo label` and `lamo pack` with their defaults.
void RunPipeline(const Flags& flags, std::map<std::string, bool>* checks) {
  const std::string dir = flags.Get("dir", ".");
  const Span root("pipeline");

  Graph graph = [&] {
    const Span span("io.parse", root.id());
    return Must(ReadEdgeList(dir + "/run.graph.txt"), "graph");
  }();
  {
    const Span span("graph.index_build", root.id());
    const GraphIndex index(graph);
  }

  std::vector<Motif> motifs;
  const size_t min_freq = std::stoul(flags.Get("min-freq", "40"));
  if (flags.Get("algo", "levelwise") == "esu") {
    EsuMotifConfig config;
    config.min_frequency = min_freq;
    for (size_t size = 3; size <= 5; ++size) {
      config.size = size;
      const Span span("motif.esu", root.id());
      for (auto& motif : FindNetworkMotifsEsu(graph, config)) {
        motifs.push_back(std::move(motif));
      }
    }
  } else {
    MinerConfig config;
    config.min_size = 3;
    config.max_size = 5;
    config.min_frequency = min_freq;
    config.max_patterns_per_level = 60;
    {
      const Span span("motif.miner", root.id());
      motifs = FrequentSubgraphMiner(graph, config).Mine();
    }
    {
      const Span span("motif.uniqueness", root.id());
      UniquenessConfig uniqueness;
      uniqueness.num_random_networks = 10;
      EvaluateUniqueness(graph, uniqueness, &motifs);
    }
    motifs = FilterUnique(std::move(motifs), 0.95);
  }
  const std::string motif_path = dir + "/layers.motifs.txt";
  {
    const Span span("io.motif_write", root.id());
    MustOk(WriteMotifs(motifs, motif_path), "write motifs");
  }
  (*checks)["motifs_identical"] =
      ReadFile(motif_path) == ReadFile(dir + "/run.motifs.txt");

  // label
  {
    const Span span("io.motif_read", root.id());
    motifs = Must(ReadMotifs(motif_path), "read motifs");
  }
  Ontology ontology = [&] {
    const Span span("io.parse", root.id());
    return Must(ReadObo(dir + "/run.obo"), "obo");
  }();
  AnnotationTable annotations = [&] {
    const Span span("io.parse", root.id());
    return Must(ReadAnnotations(dir + "/run.annotations.tsv", ontology),
                "annotations");
  }();
  InformativeConfig informative_config;
  informative_config.min_direct_proteins =
      std::max<size_t>(5, graph.num_vertices() / 140);
  std::vector<LabeledMotif> labeled;
  {
    const Span label_span("core.label", root.id());
    const TermWeights weights = [&] {
      const Span span("ontology.weights", label_span.id());
      return TermWeights::Compute(ontology, annotations);
    }();
    const InformativeClasses informative = [&] {
      const Span span("ontology.informative", label_span.id());
      return InformativeClasses::Compute(ontology, annotations,
                                         informative_config);
    }();
    LaMoFinder finder(ontology, weights, informative, annotations);
    LaMoFinderConfig config;
    config.sigma = 10;
    config.max_occurrences = 300;
    // LabelAll's work, one span per LabelMotif call.
    const int64_t label_id = label_span.id();
    std::vector<std::vector<LabeledMotif>> per_motif =
        ParallelMap(motifs.size(), 1, [&](size_t i) {
          const Span span("core.label_motif", label_id, i);
          return finder.LabelMotif(motifs[i], config);
        });
    for (auto& group : per_motif) {
      for (auto& lm : group) labeled.push_back(std::move(lm));
    }
    {
      const Span span("core.strengths", label_id);
      ComputeMotifStrengths(&labeled);
    }
  }
  const std::string labeled_path = dir + "/layers.labeled.txt";
  {
    const Span span("io.labeled_write", root.id());
    MustOk(WriteLabeledMotifs(labeled, ontology, labeled_path),
           "write labeled");
  }
  (*checks)["labeled_identical"] =
      ReadFile(labeled_path) == ReadFile(dir + "/run.labeled.txt");

  // pack: the CLI re-reads the labeled motifs from their text form.
  {
    const Span span("io.labeled_read", root.id());
    labeled = Must(ReadLabeledMotifs(labeled_path, ontology), "read labeled");
  }
  {
    const Span span("predict.gds_count", root.id());
    ComputeGdsSignatures(graph);
  }
  {
    const Span span("predict.role_build", root.id());
    ComputeRoleVectors(graph);
  }
  Snapshot snapshot = [&] {
    const Span span("serve.snapshot_build", root.id());
    return BuildSnapshot(std::move(graph), std::move(ontology),
                         std::move(annotations), std::move(labeled),
                         informative_config);
  }();
  std::string bytes;
  {
    const Span span("serve.snapshot_encode", root.id());
    bytes = EncodeSnapshot(snapshot);
  }
  const std::string snap_path = dir + "/layers.lamosnap";
  {
    const Span span("serve.snapshot_write", root.id());
    MustOk(WriteSnapshot(snapshot, snap_path), "write snapshot");
  }
  const std::string packed = ReadFile(dir + "/run.lamosnap");
  (*checks)["snapshot_identical"] = ReadFile(snap_path) == packed;

  // snapshot load, as `lamo serve` does it
  Snapshot loaded = [&] {
    const Span span("serve.snapshot_decode", root.id());
    return Must(DecodeSnapshot(packed), "decode");
  }();
  {
    const Span span("serve.service_init", root.id());
    const SnapshotService service(std::move(loaded));
  }
}

std::vector<std::string> PayloadLines(const std::string& response) {
  std::vector<std::string> lines;
  std::istringstream in(response);
  std::string line;
  std::getline(in, line);  // "OK <n>"
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

// Replays a request stream through SnapshotService::Handle, and through the
// public calls Handle is made of: ParseRequest, ResponseCache Get/Put,
// FunctionPredictor::Predict, FormatOkResponse, UpdateEngine Apply/ScoreEdge
// and the per-update predictor rebuild.
void RunRequests(const Flags& flags, std::map<std::string, bool>* checks) {
  const std::string bytes = ReadFile(flags.Get("snapshot", ""));
  std::unique_ptr<SnapshotService> service;
  {
    Snapshot snapshot = Must(DecodeSnapshot(bytes), "decode");
    const Span span("serve.service_init");
    service = std::make_unique<SnapshotService>(std::move(snapshot));
  }
  Snapshot parts = Must(DecodeSnapshot(bytes), "decode");
  PredictionContext context;
  context.ppi = &parts.graph;
  context.categories = parts.categories;
  context.protein_categories = parts.protein_categories;
  PredictorInputs inputs;
  inputs.context = &context;
  inputs.ontology = &parts.ontology;
  inputs.motifs = &parts.motifs;
  std::unique_ptr<FunctionPredictor> predictor = [&] {
    const Span span("predict.rebuild");
    return Must(MakePredictor("lms", inputs), "predictor");
  }();
  UpdateEngine engine(&parts);
  ResponseCache cache(kDefaultServeCacheCapacity);

  std::ifstream in(flags.Get("requests", ""));
  std::string line;
  uint64_t id = 0;
  bool answers_ok = true;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    ++id;
    std::string response;
    {
      const Span span("serve.handle", -1, id);
      response = service->Handle(line);
    }
    if (response.rfind("OK", 0) != 0) answers_ok = false;
    const Span root("serve.components", -1, id);
    const Request request = [&] {
      const Span span("serve.parse", root.id(), id);
      return Must(ParseRequest(line), "parse");
    }();
    if (request.type == RequestType::kAddEdge ||
        request.type == RequestType::kDelEdge) {
      UpdateResult result;
      {
        const Span span("serve.update_apply", root.id(), id);
        MustOk(engine.Apply(request.type == RequestType::kAddEdge,
                            request.protein, request.protein2, &result),
               "apply");
      }
      {
        const Span span("predict.rebuild", root.id(), id);
        predictor = Must(MakePredictor("lms", inputs), "predictor");
      }
      ObsAdd(ObsCounterId("perfbench.resubgraphs"), result.resubgraphs);
      // Handle invalidates only the affected entries; the replay's own
      // cache drops everything so its answers stay comparable.
      cache.EraseIf([](const std::string&) { return true; });
      continue;
    }
    if (request.type == RequestType::kPredictEdge) {
      const Span span("serve.edge_score", root.id(), id);
      EdgeScore score;
      MustOk(engine.ScoreEdge(request.protein, request.protein2, &score),
             "score edge");
      continue;
    }
    if (!IsCacheable(request.type)) continue;
    const std::string key = CacheKey(request);
    std::string cached;
    bool hit = false;
    {
      const Span span("serve.cache_get", root.id(), id);
      hit = cache.Get(key, &cached);
    }
    if (hit) {
      answers_ok = answers_ok && cached == response;
      continue;
    }
    if (request.type == RequestType::kPredict) {
      const Span span("predict.score", root.id(), id);
      predictor->Predict(request.protein);
    }
    const std::vector<std::string> payload = PayloadLines(response);
    std::string rendered;
    {
      const Span span("serve.render", root.id(), id);
      rendered = FormatOkResponse(payload);
    }
    answers_ok = answers_ok && rendered == response;
    {
      const Span span("serve.cache_put", root.id(), id);
      cache.Put(key, std::move(rendered));
    }
  }
  (*checks)["answers_consistent"] = answers_ok;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_layers pipeline|requests --dir D --out FILE "
               "[--algo A --min-freq F --snapshot S --requests R "
               "--threads N]\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  Flags flags;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) return Usage();
    flags.values[flag.substr(2)] = argv[i + 1];
  }
  SetThreadCount(std::stoul(flags.Get("threads", "2")));
  ObsSink sink;
  SetObsSink(&sink);
  std::map<std::string, bool> checks;
  if (mode == "pipeline") {
    RunPipeline(flags, &checks);
  } else if (mode == "requests") {
    RunRequests(flags, &checks);
  } else {
    return Usage();
  }
  SetObsSink(nullptr);

  std::string out = "{\"spans\":" + Spans().Json() + ",\"checks\":{";
  bool first = true;
  for (const auto& [name, ok] : checks) {
    out += (first ? "\"" : ",\"") + name + "\":" + (ok ? "true" : "false");
    first = false;
  }
  out += "},\"report\":" + RunReportJson(sink, mode, ThreadCount()) + "}\n";
  std::FILE* file = std::fopen(flags.Get("out", "spans.json").c_str(), "w");
  if (file == nullptr) return 1;
  std::fwrite(out.data(), 1, out.size(), file);
  return std::fclose(file) == 0 ? 0 : 1;
}

}  // namespace
}  // namespace lamo

int main(int argc, char** argv) { return lamo::Main(argc, argv); }
