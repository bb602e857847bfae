// Serial/parallel equivalence net for the parallel compute layer: on
// randomized instances, every parallelized hot path — the precomputed
// distance cache, the diversity edge list, the dense QAP
// materialization, the QAP objective, and the full solver pipeline —
// must produce bit-identical results whether it runs serially
// (max_threads / options.threads = 1) or across the pool. This is the
// determinism guarantee that makes HTA_THREADS a pure performance knob.
#include <cstdlib>
#include <vector>

#include <gtest/gtest.h>

#include "assign/hta_solver.h"
#include "qap/qap_view.h"
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

TEST(ParallelEquivalenceTest, PrecomputedOracleMatchesSerialBuild) {
  ASSERT_TRUE(kForcePoolSize);
  for (const uint64_t seed : {11u, 12u, 13u}) {
    const Instance inst = MakeInstance(97, 4, seed);
    auto parallel = TaskDistanceOracle::Precomputed(
        &inst.tasks, DistanceKind::kJaccard);
    auto serial = TaskDistanceOracle::Precomputed(
        &inst.tasks, DistanceKind::kJaccard, size_t{4} << 30,
        /*max_threads=*/1);
    ASSERT_TRUE(parallel.ok());
    ASSERT_TRUE(serial.ok());
    const TaskDistanceOracle reference(&inst.tasks, DistanceKind::kJaccard);
    for (size_t i = 0; i < inst.tasks.size(); ++i) {
      for (size_t j = 0; j < inst.tasks.size(); ++j) {
        const auto ti = static_cast<TaskIndex>(i);
        const auto tj = static_cast<TaskIndex>(j);
        ASSERT_EQ((*parallel)(ti, tj), (*serial)(ti, tj));
        // The cache stores floats; both builds must round identically
        // from the on-the-fly double distance.
        ASSERT_EQ(static_cast<float>((*parallel)(ti, tj)),
                  static_cast<float>(reference(ti, tj)));
      }
    }
  }
}

TEST(ParallelEquivalenceTest, DiversityEdgesMatchSerialScan) {
  for (const uint64_t seed : {21u, 22u}) {
    const Instance inst = MakeInstance(83, 3, seed);
    const TaskDistanceOracle oracle(&inst.tasks, DistanceKind::kJaccard);
    const std::vector<WeightedEdge> parallel = BuildDiversityEdges(oracle);
    const std::vector<WeightedEdge> serial =
        BuildDiversityEdges(oracle, /*max_threads=*/1);

    // Reference: the plain row-major serial scan.
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

TEST(ParallelEquivalenceTest, DenseMaterializationMatchesSerial) {
  const Instance inst = MakeInstance(40, 3, 31);
  auto problem = HtaProblem::Create(&inst.tasks, &inst.workers, /*xmax=*/4);
  ASSERT_TRUE(problem.ok());
  const QapView view(&*problem);
  const DenseQapMatrices parallel = DenseQapMatrices::FromView(view);
  const DenseQapMatrices serial =
      DenseQapMatrices::FromView(view, /*max_threads=*/1);
  ASSERT_EQ(parallel.n, serial.n);
  EXPECT_EQ(parallel.a, serial.a);
  EXPECT_EQ(parallel.b, serial.b);
  EXPECT_EQ(parallel.c, serial.c);
}

TEST(ParallelEquivalenceTest, ObjectiveBitIdenticalAcrossThreadCaps) {
  for (const uint64_t seed : {41u, 42u}) {
    const Instance inst = MakeInstance(120, 5, seed);
    auto problem = HtaProblem::Create(&inst.tasks, &inst.workers, /*xmax=*/6);
    ASSERT_TRUE(problem.ok());
    const QapView view(&*problem);
    // A scrambled but valid permutation.
    std::vector<int32_t> perm(view.n());
    for (size_t k = 0; k < perm.size(); ++k) {
      perm[k] = static_cast<int32_t>(k);
    }
    Rng rng(seed * 7);
    for (size_t k = perm.size(); k > 1; --k) {
      std::swap(perm[k - 1], perm[rng.NextBounded(k)]);
    }
    const double parallel = view.Objective(perm);
    const double serial = view.Objective(perm, /*max_threads=*/1);
    const double capped = view.Objective(perm, /*max_threads=*/3);
    EXPECT_EQ(parallel, serial);
    EXPECT_EQ(parallel, capped);
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
      EXPECT_EQ(result->stats.qap_objective, serial->stats.qap_objective);
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
