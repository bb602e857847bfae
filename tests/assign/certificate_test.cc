// Tests for the per-instance optimality certificate (Theorem 4 /
// Eq. 18): solver stats carry an upper bound on the true optimum and a
// certified achieved-fraction.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assign/brute_force.h"
#include "assign/hta_solver.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace hta {
namespace {

struct Fixture {
  std::vector<Task> tasks;
  std::vector<Worker> workers;
};

Fixture RandomFixture(size_t num_tasks, size_t num_workers, uint64_t seed) {
  Fixture f;
  Rng rng(seed);
  for (size_t i = 0; i < num_tasks; ++i) {
    KeywordVector v(32);
    const size_t bits = 2 + rng.NextBounded(4);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(32)));
    }
    f.tasks.emplace_back(i, std::move(v));
  }
  for (size_t q = 0; q < num_workers; ++q) {
    KeywordVector v(32);
    for (int b = 0; b < 3; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(32)));
    }
    const double alpha = rng.NextDouble();
    f.workers.emplace_back(q, std::move(v),
                           MotivationWeights{alpha, 1.0 - alpha});
  }
  return f;
}

TEST(CertificateTest, UpperBoundDominatesBruteForceOptimum) {
  // On instances small enough to certify with brute force, the reported
  // upper bound must be >= the true optimum for both solvers.
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    const Fixture f = RandomFixture(8, 2, seed);
    auto problem = HtaProblem::Create(&f.tasks, &f.workers, 3);
    ASSERT_TRUE(problem.ok());
    auto best = SolveHtaBruteForce(*problem);
    ASSERT_TRUE(best.ok());
    auto app = SolveHtaApp(*problem, 1);
    auto gre = SolveHtaGre(*problem, 1);
    ASSERT_TRUE(app.ok());
    ASSERT_TRUE(gre.ok());
    EXPECT_GE(app->stats.optimum_upper_bound + 1e-9, best->motivation)
        << "exact-LSAP bound violated at seed " << seed;
    EXPECT_GE(gre->stats.optimum_upper_bound + 1e-9, best->motivation)
        << "greedy-LSAP bound violated at seed " << seed;
  }
}

TEST(CertificateTest, CertifiedRatioIsConservative) {
  // certified_ratio lower-bounds achieved/OPT: achieved/UB <=
  // achieved/OPT because UB >= OPT.
  for (uint64_t seed = 10; seed <= 14; ++seed) {
    const Fixture f = RandomFixture(8, 2, seed);
    auto problem = HtaProblem::Create(&f.tasks, &f.workers, 3);
    ASSERT_TRUE(problem.ok());
    auto best = SolveHtaBruteForce(*problem);
    ASSERT_TRUE(best.ok());
    auto app = SolveHtaApp(*problem, 2);
    ASSERT_TRUE(app.ok());
    if (best->motivation > 0.0) {
      const double true_ratio = app->stats.qap_objective / best->motivation;
      EXPECT_LE(app->stats.certified_ratio, true_ratio + 1e-9);
    }
    EXPECT_GE(app->stats.certified_ratio, 0.0);
    EXPECT_LE(app->stats.certified_ratio, 1.0 + 1e-9);
  }
}

TEST(CertificateTest, BestOfTwoCertifiesAboveTheoreticalFactor) {
  // The derandomized swap achieves at least the expected value of the
  // random swap, so its certificate should clear the worst-case bound
  // comfortably on benign instances.
  const Fixture f = RandomFixture(40, 4, 3);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 5);
  ASSERT_TRUE(problem.ok());
  HtaSolverOptions options;
  options.lsap = LsapMethod::kExactJv;
  options.swap = SwapMode::kBestOfTwo;
  auto result = SolveHta(*problem, options);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->stats.certified_ratio, 0.25 - 1e-9)
      << "best-of-two exact solve below the 1/4 worst case";
}

TEST(CertificateTest, GreedyBoundIsTwiceExactBound) {
  const Fixture f = RandomFixture(30, 3, 4);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4);
  ASSERT_TRUE(problem.ok());
  auto app = SolveHtaApp(*problem, 1);
  auto gre = SolveHtaGre(*problem, 1);
  ASSERT_TRUE(app.ok());
  ASSERT_TRUE(gre.ok());
  // Greedy LSAP profit <= exact LSAP profit, and greedy's bound factor
  // is 4 vs 2, so greedy's bound is at most twice exact's bound — and
  // both must dominate either algorithm's achieved objective.
  EXPECT_LE(gre->stats.optimum_upper_bound,
            2.0 * app->stats.optimum_upper_bound + 1e-9);
  EXPECT_GE(app->stats.optimum_upper_bound + 1e-9,
            app->stats.qap_objective);
  EXPECT_GE(gre->stats.optimum_upper_bound + 1e-9,
            gre->stats.qap_objective);
}

TEST(CertificateTest, StructuredExactMatchesJvBound) {
  const Fixture f = RandomFixture(30, 3, 5);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4);
  ASSERT_TRUE(problem.ok());
  HtaSolverOptions options;
  options.lsap = LsapMethod::kExactStructured;
  options.swap = SwapMode::kNone;
  auto rect = SolveHta(*problem, options);
  options.lsap = LsapMethod::kExactJv;
  auto jv = SolveHta(*problem, options);
  ASSERT_TRUE(rect.ok());
  ASSERT_TRUE(jv.ok());
  EXPECT_NEAR(rect->stats.optimum_upper_bound,
              jv->stats.optimum_upper_bound, 1e-6)
      << "both exact solvers must certify the same bound";
}

TEST(CertificateTest, CertifiedRatioIsRecordedPerSolve) {
  // Every SolveHta records its certified ratio in one histogram with
  // fixed linear bounds over (0, 1], so the quality series is counted
  // exactly like the solves themselves.
  metrics::OverrideEnabled(true);
  metrics::ResetForTesting();
  double ratio_sum = 0.0;
  size_t solves = 0;
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    const Fixture f = RandomFixture(30, 3, seed);
    auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4);
    ASSERT_TRUE(problem.ok());
    for (LsapMethod lsap : {LsapMethod::kExactJv, LsapMethod::kGreedy,
                            LsapMethod::kExactStructured}) {
      HtaSolverOptions options;
      options.lsap = lsap;
      auto result = SolveHta(*problem, options);
      ASSERT_TRUE(result.ok());
      ratio_sum += result->stats.certified_ratio;
      ++solves;
    }
  }
  uint64_t solver_solves = 0;
  const metrics::MetricValue* ratio = nullptr;
  const std::vector<metrics::MetricValue> snapshot = metrics::Snapshot();
  for (const metrics::MetricValue& v : snapshot) {
    if (v.name == "solver.solves") solver_solves = v.count;
    if (v.name == "solver.certified_ratio") ratio = &v;
  }
  metrics::ResetForTesting();
  metrics::OverrideEnabled(false);

  ASSERT_NE(ratio, nullptr);
  EXPECT_EQ(solver_solves, solves);
  EXPECT_EQ(ratio->count, solver_solves);
  ASSERT_EQ(ratio->bounds.size(), 20u);
  for (size_t i = 0; i < ratio->bounds.size(); ++i) {
    EXPECT_DOUBLE_EQ(ratio->bounds[i], 0.05 * static_cast<double>(i + 1));
  }
  EXPECT_EQ(ratio->bucket_counts.back(), 0u) << "a ratio above 1";
  EXPECT_NEAR(ratio->sum, ratio_sum, 1e-12);
}

}  // namespace
}  // namespace hta
