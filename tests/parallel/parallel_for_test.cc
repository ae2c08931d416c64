#include "parallel/parallel_for.h"

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "ontology/annotation.h"
#include "ontology/ontology.h"
#include "ontology/similarity.h"
#include "ontology/weights.h"

namespace lamo {
namespace {

/// Restores the process thread count on scope exit so tests are independent.
class ScopedThreadCount {
 public:
  explicit ScopedThreadCount(size_t n) { SetThreadCount(n); }
  ~ScopedThreadCount() { SetThreadCount(0); }
};

TEST(ThreadCountTest, ExplicitOverrideWins) {
  ScopedThreadCount guard(3);
  EXPECT_EQ(ThreadCount(), 3u);
}

TEST(ThreadCountTest, EnvOverrideWhenNoExplicitCount) {
  SetThreadCount(0);
  ASSERT_EQ(setenv("LAMO_THREADS", "5", /*overwrite=*/1), 0);
  EXPECT_EQ(ThreadCount(), 5u);
  ASSERT_EQ(setenv("LAMO_THREADS", "not-a-number", 1), 0);
  EXPECT_EQ(ThreadCount(), HardwareConcurrency());
  ASSERT_EQ(unsetenv("LAMO_THREADS"), 0);
  EXPECT_EQ(ThreadCount(), HardwareConcurrency());
}

TEST(ThreadCountTest, AutoFallsBackToHardware) {
  SetThreadCount(0);
  EXPECT_EQ(ThreadCount(), HardwareConcurrency());
  EXPECT_GE(HardwareConcurrency(), 1u);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ScopedThreadCount guard(4);
  std::vector<std::atomic<int>> visits(1000);
  ParallelFor(0, visits.size(), 7, [&](size_t i) {
    visits[i].fetch_add(1);
  });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, EmptyAndSingleRanges) {
  ScopedThreadCount guard(4);
  int count = 0;
  ParallelFor(5, 5, 1, [&](size_t) { ++count; });
  EXPECT_EQ(count, 0);
  ParallelFor(5, 6, 1, [&](size_t i) {
    EXPECT_EQ(i, 5u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ParallelForTest, ExceptionPropagatesToCaller) {
  ScopedThreadCount guard(4);
  EXPECT_THROW(
      ParallelFor(0, 100, 1,
                  [&](size_t i) {
                    if (i == 37) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
  // The runtime stays usable after a throwing region.
  std::atomic<int> counter{0};
  ParallelFor(0, 10, 1, [&](size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelForTest, NestedForIsRejectedAndRunsSerially) {
  ScopedThreadCount guard(4);
  std::atomic<int> inner_total{0};
  std::atomic<int> nested_regions{0};
  ParallelFor(0, 8, 1, [&](size_t) {
    EXPECT_TRUE(InParallelRegion());
    // Nested fan-out must degrade to an inline serial loop, not deadlock.
    ParallelFor(0, 10, 1, [&](size_t) { inner_total.fetch_add(1); });
    nested_regions.fetch_add(1);
  });
  EXPECT_EQ(nested_regions.load(), 8);
  EXPECT_EQ(inner_total.load(), 80);
  EXPECT_FALSE(InParallelRegion());
}

TEST(ParallelForChunksTest, ChunkBoundariesDependOnlyOnGrain) {
  // Chunking is the determinism anchor: record boundaries at 1 and at 4
  // threads and require them identical.
  auto boundaries_at = [](size_t threads) {
    ScopedThreadCount guard(threads);
    std::vector<std::vector<size_t>> chunks(7);  // ceil(20/3)
    ParallelForChunks(0, 20, 3, [&](size_t chunk, size_t lo, size_t hi) {
      chunks[chunk] = {lo, hi};
    });
    return chunks;
  };
  EXPECT_EQ(boundaries_at(1), boundaries_at(4));
}

TEST(ParallelMapTest, ResultsInIndexOrderForAnyThreadCount) {
  auto square_map = [](size_t threads) {
    ScopedThreadCount guard(threads);
    return ParallelMap(100, 3, [](size_t i) { return i * i; });
  };
  const std::vector<size_t> serial = square_map(1);
  const std::vector<size_t> parallel = square_map(4);
  ASSERT_EQ(serial.size(), 100u);
  for (size_t i = 0; i < serial.size(); ++i) EXPECT_EQ(serial[i], i * i);
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelReduceTest, OrderedFoldIsThreadCountInvariant) {
  // A deliberately non-commutative floating-point sum: identical results
  // across thread counts only hold because partials fold in chunk order.
  auto noisy_sum = [](size_t threads) {
    ScopedThreadCount guard(threads);
    return ParallelReduce<double>(
        1000, 17, 0.0,
        [](size_t lo, size_t hi) {
          double s = 0.0;
          for (size_t i = lo; i < hi; ++i) s += 1.0 / (1.0 + i);
          return s;
        },
        [](double acc, double part) { return acc + part; });
  };
  const double serial = noisy_sum(1);
  const double parallel = noisy_sum(4);
  EXPECT_EQ(serial, parallel);  // bitwise, not approximate
  EXPECT_NEAR(serial, 7.4854708605503449, 1e-12);
}

TEST(ParallelReduceTest, EmptyRangeReturnsIdentity) {
  ScopedThreadCount guard(4);
  const int result = ParallelReduce<int>(
      0, 1, 42, [](size_t, size_t) { return 7; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(result, 42);
}

TEST(TermSimilarityConcurrencyTest, SharedEngineIsSafeAndConsistent) {
  // A small ontology: root -> a, b; a -> a1; b -> b1; s with parents a, b.
  OntologyBuilder builder;
  const TermId root = builder.AddTerm("root");
  const TermId a = builder.AddTerm("a");
  const TermId b = builder.AddTerm("b");
  const TermId a1 = builder.AddTerm("a1");
  const TermId b1 = builder.AddTerm("b1");
  const TermId s = builder.AddTerm("s");
  ASSERT_TRUE(builder.AddRelation(a, root, RelationType::kIsA).ok());
  ASSERT_TRUE(builder.AddRelation(b, root, RelationType::kIsA).ok());
  ASSERT_TRUE(builder.AddRelation(a1, a, RelationType::kIsA).ok());
  ASSERT_TRUE(builder.AddRelation(b1, b, RelationType::kIsA).ok());
  ASSERT_TRUE(builder.AddRelation(s, a, RelationType::kIsA).ok());
  ASSERT_TRUE(builder.AddRelation(s, b, RelationType::kPartOf).ok());
  auto built = builder.Build();
  ASSERT_TRUE(built.ok());
  const Ontology onto = std::move(built).value();

  AnnotationTable annotations(60);
  ProteinId next = 0;
  for (TermId t : {root, a, b, a1, b1, s}) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(annotations.Annotate(next++, t).ok());
    }
  }
  const TermWeights weights = TermWeights::Compute(onto, annotations);
  const TermSimilarity st(onto, weights);

  // Reference values, computed serially.
  const size_t num_terms = onto.num_terms();
  std::vector<double> expected(num_terms * num_terms);
  for (TermId x = 0; x < num_terms; ++x) {
    for (TermId y = 0; y < num_terms; ++y) {
      expected[x * num_terms + y] = st.Similarity(x, y);
    }
  }

  ScopedThreadCount guard(4);
  const TermSimilarity concurrent(onto, weights);
  std::atomic<int> mismatches{0};
  // Every pair queried many times from competing tasks: one shared engine
  // must give every task the serial value.
  ParallelFor(0, 64, 1, [&](size_t round) {
    for (TermId x = 0; x < num_terms; ++x) {
      for (TermId y = 0; y < num_terms; ++y) {
        const TermId qx = (round % 2 == 0) ? x : y;
        const TermId qy = (round % 2 == 0) ? y : x;
        if (concurrent.Similarity(qx, qy) !=
            expected[qx * num_terms + qy]) {
          mismatches.fetch_add(1);
        }
      }
    }
  });
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace lamo
