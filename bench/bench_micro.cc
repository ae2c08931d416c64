// Microbenchmarks of the library's hot paths (google-benchmark).
#include <benchmark/benchmark.h>

#include "core/label_profile.h"
#include "core/occurrence_similarity.h"
#include "core/paper_example.h"
#include "graph/canonical.h"
#include "graph/generators.h"
#include "graph/isomorphism.h"
#include "motif/esu.h"

namespace lamo {
namespace {

const PaperExample& Example() {
  static const PaperExample* example = new PaperExample(MakePaperExample());
  return *example;
}

void BM_TermSimilarity(benchmark::State& state) {
  const PaperExample& ex = Example();
  TermSimilarity st(ex.ontology, ex.weights);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        st.Similarity(ex.term("G08"), ex.term("G09")));
  }
}
BENCHMARK(BM_TermSimilarity);

void BM_VertexSimilarity(benchmark::State& state) {
  const PaperExample& ex = Example();
  TermSimilarity st(ex.ontology, ex.weights);
  const LabelSet a{ex.term("G04"), ex.term("G09"), ex.term("G10")};
  const LabelSet b{ex.term("G03"), ex.term("G05"), ex.term("G07")};
  for (auto _ : state) {
    benchmark::DoNotOptimize(VertexSimilarity(st, a, b));
  }
}
BENCHMARK(BM_VertexSimilarity);

void BM_OccurrenceSimilarity(benchmark::State& state) {
  const PaperExample& ex = Example();
  TermSimilarity st(ex.ontology, ex.weights);
  OccurrenceSimilarity so(st, ex.motif);
  LabelProfile o1(4), o2(4);
  for (uint32_t pos = 0; pos < 4; ++pos) {
    const auto t1 = ex.protein_annotations.TermsOf(ex.occurrences[0][pos]);
    const auto t2 = ex.protein_annotations.TermsOf(ex.occurrences[1][pos]);
    o1[pos].assign(t1.begin(), t1.end());
    o2[pos].assign(t2.begin(), t2.end());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(so.Score(o1, o2));
  }
}
BENCHMARK(BM_OccurrenceSimilarity);

void BM_Canonicalize(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(n);
  SmallGraph g(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) {
      if (rng.Bernoulli(0.3)) g.AddEdge(i, j);
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Canonicalize(g));
  }
}
BENCHMARK(BM_Canonicalize)->Arg(5)->Arg(10)->Arg(15)->Arg(20);

void BM_CanonicalizeClique(benchmark::State& state) {
  // Worst case for naive search; the twin-cell rule must keep this flat.
  const size_t n = static_cast<size_t>(state.range(0));
  SmallGraph g(n);
  for (uint32_t i = 0; i < n; ++i) {
    for (uint32_t j = i + 1; j < n; ++j) g.AddEdge(i, j);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(Canonicalize(g));
  }
}
BENCHMARK(BM_CanonicalizeClique)->Arg(8)->Arg(16)->Arg(24);

void BM_Vf2CountOccurrences(benchmark::State& state) {
  Rng rng(17);
  const Graph g = DuplicationDivergence(1000, 0.3, 0.15, rng);
  SmallGraph square(4);
  square.AddEdge(0, 1);
  square.AddEdge(1, 2);
  square.AddEdge(2, 3);
  square.AddEdge(3, 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(CountOccurrences(square, g));
  }
}
BENCHMARK(BM_Vf2CountOccurrences);

void BM_EsuEnumerate(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(19);
  const Graph g = DuplicationDivergence(600, 0.3, 0.15, rng);
  for (auto _ : state) {
    size_t count = 0;
    EnumerateConnectedSubgraphs(g, k, [&](const std::vector<VertexId>&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_EsuEnumerate)->Arg(3)->Arg(4);

void BM_DegreePreservingRewire(benchmark::State& state) {
  Rng rng(23);
  const Graph g = DuplicationDivergence(1000, 0.3, 0.15, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DegreePreservingRewire(g, 3.0, rng));
  }
}
BENCHMARK(BM_DegreePreservingRewire);

}  // namespace
}  // namespace lamo

BENCHMARK_MAIN();
