// Tests for the per-instance optimality certificate (Theorem 4 /
// Eq. 18): solver stats carry an upper bound on the true optimum and a
// certified achieved-fraction of the Eq. 3 motivation the extracted
// bundles score.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assign/hta_solver.h"
#include "matching/lsap.h"
#include "qap/qap_view.h"
#include "reference/auxiliary_profit.h"
#include "reference/brute_force_hta.h"
#include "reference/dense_profit.h"
#include "reference/lsap_jv.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace hta {
namespace {

using reference::SolveHtaBruteForce;

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
      const double true_ratio = app->stats.motivation / best->motivation;
      EXPECT_LE(app->stats.certified_ratio, true_ratio + 1e-9);
    }
    EXPECT_GE(app->stats.certified_ratio, 0.0);
    EXPECT_LE(app->stats.certified_ratio, 1.0 + 1e-9);
  }
}

/// Every HTA-APP/HTA-GRE configuration: both LSAPs under all three swap
/// modes.
std::vector<HtaSolverOptions> AllSolverOptions(uint64_t seed) {
  std::vector<HtaSolverOptions> all;
  for (LsapMethod lsap : {LsapMethod::kExactJv, LsapMethod::kGreedy}) {
    for (SwapMode swap :
         {SwapMode::kRandom, SwapMode::kBestOfTwo, SwapMode::kNone}) {
      HtaSolverOptions options;
      options.lsap = lsap;
      options.swap = swap;
      options.seed = seed;
      all.push_back(options);
    }
  }
  return all;
}

/// The certificate is the Eq. 3 motivation of the returned bundles over
/// the Theorem 4 bound, and it never claims more than the bundles
/// achieve against the brute-force optimum.
void ExpectCertifiesBundles(const HtaProblem& problem,
                            const HtaSolverOptions& options,
                            double optimum) {
  SCOPED_TRACE(SolverName(options));
  auto solved = SolveHta(problem, options);
  ASSERT_TRUE(solved.ok()) << solved.status();
  const HtaSolveStats& stats = solved->stats;
  EXPECT_EQ(stats.motivation, TotalMotivation(problem, solved->assignment));
  EXPECT_EQ(stats.certified_ratio,
            stats.optimum_upper_bound > 0.0
                ? stats.motivation / stats.optimum_upper_bound
                : 1.0);
  EXPECT_GE(stats.optimum_upper_bound + 1e-9, optimum);
  if (optimum > 0.0) {
    EXPECT_LE(stats.certified_ratio, stats.motivation / optimum + 1e-9)
        << "motivation " << stats.motivation << " optimum " << optimum
        << " bound " << stats.optimum_upper_bound;
  }
}

TEST(CertificateTest, PaddedSplitInstanceCertifiesBundlesNotPermutation) {
  // |T| = 2 < |W| * Xmax = 12. Each worker's interests are one task's
  // keywords, so the LSAP gives each worker its own task (profit 10
  // against 7.5 for one shared bundle): two
  // one-task bundles score 0 under Eq. 3, while the permutation's Eq. 8
  // value still counts both relevance profits at the (Xmax - 1)
  // normalizer. The optimum puts both tasks in one bundle.
  std::vector<Task> tasks;
  tasks.emplace_back(0, KeywordVector(8, {0, 1}));
  tasks.emplace_back(1, KeywordVector(8, {2, 3}));
  std::vector<Worker> workers;
  workers.emplace_back(0, KeywordVector(8, {0, 1}),
                       MotivationWeights{0.5, 0.5});
  workers.emplace_back(1, KeywordVector(8, {2, 3}),
                       MotivationWeights{0.5, 0.5});
  auto problem = HtaProblem::Create(&tasks, &workers, /*xmax=*/6);
  ASSERT_TRUE(problem.ok()) << problem.status();
  auto best = SolveHtaBruteForce(*problem);
  ASSERT_TRUE(best.ok()) << best.status();
  ASSERT_GT(best->motivation, 0.0);
  for (const HtaSolverOptions& options : AllSolverOptions(1)) {
    auto solved = SolveHta(*problem, options);
    ASSERT_TRUE(solved.ok()) << solved.status();
    // The random swap may exchange the two tasks; either way each
    // worker holds one.
    ASSERT_EQ(solved->assignment.bundles.size(), 2u);
    EXPECT_EQ(solved->assignment.bundles[0].size(), 1u) << SolverName(options);
    EXPECT_EQ(solved->assignment.bundles[1].size(), 1u) << SolverName(options);
    EXPECT_EQ(solved->stats.motivation, 0.0) << SolverName(options);
    ExpectCertifiesBundles(*problem, options, best->motivation);
  }
}

TEST(CertificateTest, PaddedShapesNeverOverstateAgainstBruteForce) {
  // |T| < |W| * Xmax throughout, so the solver pads the QAP and bundles
  // may end up below Xmax.
  uint64_t seed = 100;
  for (size_t num_tasks = 2; num_tasks <= 7; ++num_tasks) {
    for (size_t num_workers = 1; num_workers <= 2; ++num_workers) {
      for (size_t xmax = 2; xmax <= 7; ++xmax) {
        if (num_tasks >= num_workers * xmax) continue;
        ++seed;
        SCOPED_TRACE(testing::Message()
                     << "|T|=" << num_tasks << " |W|=" << num_workers
                     << " xmax=" << xmax << " seed=" << seed);
        const Fixture f = RandomFixture(num_tasks, num_workers, seed);
        auto problem = HtaProblem::Create(&f.tasks, &f.workers, xmax);
        ASSERT_TRUE(problem.ok()) << problem.status();
        auto best = SolveHtaBruteForce(*problem);
        ASSERT_TRUE(best.ok()) << best.status();
        for (const HtaSolverOptions& options : AllSolverOptions(seed)) {
          ExpectCertifiesBundles(*problem, options, best->motivation);
        }
      }
    }
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
  EXPECT_GE(app->stats.optimum_upper_bound + 1e-9, app->stats.motivation);
  EXPECT_GE(gre->stats.optimum_upper_bound + 1e-9, gre->stats.motivation);
}

TEST(CertificateTest, StructuredExactMatchesJvBound) {
  // HTA-APP solves its auxiliary LSAP as a (task, worker) transportation
  // problem; the bound it certifies must be twice the optimum a square
  // JV solve of the same LSAP finds, so the Theorem-4 factor stays 2.
  // The shapes cover full instances and a padded one (|W| * Xmax > |T|).
  struct Shape {
    size_t tasks;
    size_t workers;
    uint64_t seed;
  };
  for (const Shape shape :
       {Shape{30, 3, 5}, Shape{40, 2, 6}, Shape{10, 4, 7}}) {
    const Fixture f = RandomFixture(shape.tasks, shape.workers, shape.seed);
    auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4);
    ASSERT_TRUE(problem.ok());
    auto app = SolveHtaApp(*problem, 1);
    ASSERT_TRUE(app.ok());
    const size_t n = QapView(&*problem).n();
    const std::vector<double> profit =
        reference::AuxiliaryProfitMatrix(*problem);
    const LsapSolution jv =
        reference::SolveLsapJv(n, reference::DenseProfit(n, &profit));
    EXPECT_NEAR(app->stats.optimum_upper_bound, 2.0 * jv.profit,
                1e-9 * std::max(1.0, 2.0 * jv.profit))
        << "|T|=" << shape.tasks << " |W|=" << shape.workers;
  }
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
    for (LsapMethod lsap : {LsapMethod::kExactJv, LsapMethod::kGreedy}) {
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
