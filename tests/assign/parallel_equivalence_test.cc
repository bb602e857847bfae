// Serial/parallel equivalence net for the parallel compute layer: on
// randomized instances, every parallelized hot path — the diversity
// edge list and the full solver pipeline — must produce bit-identical results whether it runs serially
// (max_threads / options.threads = 1) or across the pool. This is the
// determinism guarantee that makes HTA_THREADS a pure performance knob.
#include <algorithm>
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "assign/hta_solver.h"
#include "util/rng.h"

namespace hta {
namespace {

// Force a multi-threaded global pool before first use so the parallel
// side of each comparison really runs on worker threads, even on
// single-core CI machines (see parallel_test.cc).
const bool kForcePoolSize = [] {
  setenv("HTA_THREADS", "4", /*overwrite=*/0);
  return true;
}();

struct Instance {
  std::vector<Task> tasks;
  std::vector<Worker> workers;
};

Instance MakeInstance(size_t num_tasks, size_t num_workers, uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  for (size_t i = 0; i < num_tasks; ++i) {
    KeywordVector v(64);
    const size_t bits = 2 + rng.NextBounded(6);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(64)));
    }
    inst.tasks.emplace_back(i, std::move(v));
  }
  for (size_t q = 0; q < num_workers; ++q) {
    KeywordVector v(64);
    for (int b = 0; b < 5; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(64)));
    }
    const double alpha = rng.NextDouble();
    inst.workers.emplace_back(q, std::move(v),
                              MotivationWeights{alpha, 1.0 - alpha});
  }
  return inst;
}

TEST(ParallelEquivalenceTest, DiversityEdgesMatchSerialScan) {
  ASSERT_TRUE(kForcePoolSize);
  for (const uint64_t seed : {21u, 22u}) {
    const Instance inst = MakeInstance(83, 3, seed);
    const TaskDistanceOracle oracle(&inst.tasks, DistanceKind::kJaccard);
    const std::vector<WeightedEdge> parallel = BuildDiversityEdges(oracle);
    const std::vector<WeightedEdge> serial =
        BuildDiversityEdges(oracle, /*max_threads=*/1);

    // Reference: the plain row-major serial scan, stable-sorted into
    // the greedy's order (weight desc, u asc, v asc).
    std::vector<WeightedEdge> reference;
    for (size_t i = 0; i < inst.tasks.size(); ++i) {
      for (size_t j = i + 1; j < inst.tasks.size(); ++j) {
        const float w = static_cast<float>(
            oracle(static_cast<TaskIndex>(i), static_cast<TaskIndex>(j)));
        if (w > 0.0f) {
          reference.push_back(WeightedEdge{static_cast<VertexId>(i),
                                           static_cast<VertexId>(j), w});
        }
      }
    }

    std::stable_sort(reference.begin(), reference.end(),
                     [](const WeightedEdge& a, const WeightedEdge& b) {
                       if (a.weight != b.weight) return a.weight > b.weight;
                       if (a.u != b.u) return a.u < b.u;
                       return a.v < b.v;
                     });

    ASSERT_EQ(parallel.size(), reference.size());
    ASSERT_EQ(serial.size(), reference.size());
    for (size_t e = 0; e < reference.size(); ++e) {
      ASSERT_EQ(parallel[e].u, reference[e].u) << "edge " << e;
      ASSERT_EQ(parallel[e].v, reference[e].v) << "edge " << e;
      ASSERT_EQ(parallel[e].weight, reference[e].weight) << "edge " << e;
      ASSERT_EQ(serial[e].u, reference[e].u) << "edge " << e;
      ASSERT_EQ(serial[e].v, reference[e].v) << "edge " << e;
      ASSERT_EQ(serial[e].weight, reference[e].weight) << "edge " << e;
    }
  }
}

class SolverEquivalence : public ::testing::TestWithParam<LsapMethod> {};

TEST_P(SolverEquivalence, SolveHtaBitIdenticalSerialVsParallel) {
  for (const uint64_t seed : {51u, 52u, 53u}) {
    const Instance inst = MakeInstance(90, 4, seed);
    auto problem = HtaProblem::Create(&inst.tasks, &inst.workers, /*xmax=*/5);
    ASSERT_TRUE(problem.ok());

    HtaSolverOptions options;
    options.lsap = GetParam();
    options.swap = SwapMode::kBestOfTwo;  // Deterministic swap phase.
    options.seed = seed;

    options.threads = 1;
    auto serial = SolveHta(*problem, options);
    ASSERT_TRUE(serial.ok());
    options.threads = 0;
    auto parallel = SolveHta(*problem, options);
    ASSERT_TRUE(parallel.ok());
    options.threads = 3;
    auto capped = SolveHta(*problem, options);
    ASSERT_TRUE(capped.ok());

    for (const auto& result : {&*parallel, &*capped}) {
      EXPECT_EQ(result->assignment.bundles, serial->assignment.bundles);
      EXPECT_EQ(result->stats.motivation, serial->stats.motivation);
      EXPECT_EQ(result->stats.optimum_upper_bound,
                serial->stats.optimum_upper_bound);
      EXPECT_EQ(result->stats.certified_ratio,
                serial->stats.certified_ratio);
      EXPECT_EQ(result->stats.matched_pairs, serial->stats.matched_pairs);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllLsapMethods, SolverEquivalence,
                         ::testing::Values(LsapMethod::kExactJv,
                                           LsapMethod::kGreedy),
                         [](const ::testing::TestParamInfo<LsapMethod>& info) {
                           switch (info.param) {
                             case LsapMethod::kExactJv:
                               return "jv";
                             case LsapMethod::kGreedy:
                               return "greedy";
                           }
                           return "unknown";
                         });

}  // namespace
}  // namespace hta
