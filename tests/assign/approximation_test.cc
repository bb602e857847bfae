#include <gtest/gtest.h>

#include "assign/hta_solver.h"
#include "reference/brute_force_hta.h"
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

TEST(BruteForceTest, RefusesLargeInstances) {
  const Fixture f = RandomFixture(20, 2, 1);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 3);
  ASSERT_TRUE(problem.ok());
  EXPECT_EQ(SolveHtaBruteForce(*problem).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(BruteForceTest, FindsObviousOptimum) {
  // Two disjoint-keyword tasks, one diversity-loving worker with
  // Xmax 2: optimal bundle is both tasks, motivation 2 * d = 2.
  std::vector<Task> tasks;
  tasks.emplace_back(0, KeywordVector(16, {1}));
  tasks.emplace_back(1, KeywordVector(16, {2}));
  std::vector<Worker> workers;
  workers.emplace_back(0, KeywordVector(16, {9}),
                       MotivationWeights::DiversityOnly());
  auto problem = HtaProblem::Create(&tasks, &workers, 2);
  ASSERT_TRUE(problem.ok());
  auto best = SolveHtaBruteForce(*problem);
  ASSERT_TRUE(best.ok());
  EXPECT_NEAR(best->motivation, 2.0, 1e-12);
  EXPECT_EQ(best->assignment.bundles[0].size(), 2u);
}

TEST(BruteForceTest, OptimumIsFeasible) {
  const Fixture f = RandomFixture(7, 2, 2);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 3);
  ASSERT_TRUE(problem.ok());
  auto best = SolveHtaBruteForce(*problem);
  ASSERT_TRUE(best.ok());
  EXPECT_TRUE(ValidateAssignment(*problem, best->assignment).ok());
  EXPECT_NEAR(best->motivation, TotalMotivation(*problem, best->assignment),
              1e-12);
}

// Approximation-factor property sweep: on random small instances, both
// algorithms must (a) never beat the optimum and (b) achieve at least
// their guaranteed fraction of it. The paper's guarantees (1/4 for
// HTA-APP, 1/8 for HTA-GRE) hold in expectation over the random swap
// step, so we average over seeds.
struct ApproxCase {
  size_t tasks;
  size_t workers;
  size_t xmax;
  uint64_t seed;
};

class ApproximationSweep : public ::testing::TestWithParam<ApproxCase> {};

TEST_P(ApproximationSweep, BothAlgorithmsWithinGuarantees) {
  const ApproxCase c = GetParam();
  const Fixture f = RandomFixture(c.tasks, c.workers, c.seed);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, c.xmax);
  ASSERT_TRUE(problem.ok());
  auto best = SolveHtaBruteForce(*problem);
  ASSERT_TRUE(best.ok());
  const double opt = best->motivation;

  constexpr int kSeeds = 16;
  double app_sum = 0.0;
  double gre_sum = 0.0;
  for (int s = 0; s < kSeeds; ++s) {
    auto app = SolveHtaApp(*problem, 1000 + s);
    auto gre = SolveHtaGre(*problem, 1000 + s);
    ASSERT_TRUE(app.ok());
    ASSERT_TRUE(gre.ok());
    EXPECT_LE(app->stats.motivation, opt + 1e-9)
        << "HTA-APP beat the certified optimum";
    EXPECT_LE(gre->stats.motivation, opt + 1e-9)
        << "HTA-GRE beat the certified optimum";
    app_sum += app->stats.motivation;
    gre_sum += gre->stats.motivation;
  }
  if (opt > 0.0) {
    EXPECT_GE(app_sum / kSeeds, 0.25 * opt - 1e-9)
        << "HTA-APP below its 1/4 guarantee";
    EXPECT_GE(gre_sum / kSeeds, 0.125 * opt - 1e-9)
        << "HTA-GRE below its 1/8 guarantee";
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, ApproximationSweep,
    ::testing::Values(ApproxCase{6, 2, 3, 1}, ApproxCase{6, 2, 3, 2},
                      ApproxCase{7, 2, 3, 3}, ApproxCase{8, 2, 4, 4},
                      ApproxCase{8, 2, 3, 5}, ApproxCase{9, 3, 3, 6},
                      ApproxCase{9, 3, 2, 7}, ApproxCase{10, 2, 5, 8},
                      ApproxCase{10, 3, 3, 9}, ApproxCase{6, 3, 2, 10},
                      ApproxCase{7, 3, 2, 11}, ApproxCase{8, 4, 2, 12}),
    [](const ::testing::TestParamInfo<ApproxCase>& info) {
      const ApproxCase& c = info.param;
      // Appended piecewise: GCC 12 at -O3 raises a false -Wrestrict on
      // `"literal" + std::string`.
      std::string name = "t";
      name += std::to_string(c.tasks);
      name += "_w";
      name += std::to_string(c.workers);
      name += "_x";
      name += std::to_string(c.xmax);
      name += "_s";
      name += std::to_string(c.seed);
      return name;
    });

// Pure-diversity corner: the KPART-style instance from the NP-hardness
// reduction (all workers alpha = 1). The algorithms must stay within
// their factors here too.
TEST(ApproximationCornerTest, PureDiversityWorkers) {
  Rng rng(42);
  std::vector<Task> tasks;
  for (size_t i = 0; i < 8; ++i) {
    KeywordVector v(32);
    for (int b = 0; b < 3; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(32)));
    }
    tasks.emplace_back(i, std::move(v));
  }
  std::vector<Worker> workers;
  for (size_t q = 0; q < 2; ++q) {
    workers.emplace_back(q, KeywordVector(32, {1}),
                         MotivationWeights::DiversityOnly());
  }
  auto problem = HtaProblem::Create(&tasks, &workers, 4);
  ASSERT_TRUE(problem.ok());
  auto best = SolveHtaBruteForce(*problem);
  ASSERT_TRUE(best.ok());
  auto app = SolveHtaApp(*problem, 3);
  ASSERT_TRUE(app.ok());
  EXPECT_GE(app->stats.motivation, 0.25 * best->motivation - 1e-9);
}

// Pure-relevance corner: with alpha = 0 the problem degenerates to a
// (greedy-solvable) selection; exact LSAP must find the true optimum.
TEST(ApproximationCornerTest, PureRelevanceWorkersExactlyOptimal) {
  const Fixture base = RandomFixture(8, 2, 77);
  std::vector<Worker> workers;
  for (const Worker& w : base.workers) {
    workers.emplace_back(w.id(), w.interests(),
                         MotivationWeights::RelevanceOnly());
  }
  auto problem = HtaProblem::Create(&base.tasks, &workers, 3);
  ASSERT_TRUE(problem.ok());
  auto best = SolveHtaBruteForce(*problem);
  ASSERT_TRUE(best.ok());
  auto app = SolveHtaApp(*problem, 5);
  ASSERT_TRUE(app.ok());
  // With no quadratic term, the auxiliary LSAP *is* the problem, so
  // HTA-APP is exact (the random swap exchanges tasks within M_B pairs,
  // which cannot change the linear objective when both land in the same
  // clique, but can when they differ — hence compare without swap).
  HtaSolverOptions options;
  options.lsap = LsapMethod::kExactJv;
  options.swap = SwapMode::kNone;
  auto exact = SolveHta(*problem, options);
  ASSERT_TRUE(exact.ok());
  EXPECT_NEAR(exact->stats.motivation, best->motivation, 1e-9);
}

}  // namespace
}  // namespace hta
