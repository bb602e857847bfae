#include "assign/hta_solver.h"

#include <gtest/gtest.h>

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
    KeywordVector v(64);
    const size_t bits = 2 + rng.NextBounded(5);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(64)));
    }
    f.tasks.emplace_back(i, std::move(v));
  }
  for (size_t q = 0; q < num_workers; ++q) {
    KeywordVector v(64);
    for (int b = 0; b < 4; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(64)));
    }
    const double alpha = rng.NextDouble();
    f.workers.emplace_back(q, std::move(v),
                           MotivationWeights{alpha, 1.0 - alpha});
  }
  return f;
}

TEST(HtaSolverTest, AppProducesFeasibleAssignment) {
  const Fixture f = RandomFixture(40, 4, 1);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 5);
  ASSERT_TRUE(problem.ok());
  auto result = SolveHtaApp(*problem);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ValidateAssignment(*problem, result->assignment).ok());
  EXPECT_GT(result->stats.motivation, 0.0);
}

TEST(HtaSolverTest, GreProducesFeasibleAssignment) {
  const Fixture f = RandomFixture(40, 4, 2);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 5);
  ASSERT_TRUE(problem.ok());
  auto result = SolveHtaGre(*problem);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ValidateAssignment(*problem, result->assignment).ok());
  EXPECT_GT(result->stats.motivation, 0.0);
}

TEST(HtaSolverTest, FullBundlesWhenTasksAbound) {
  // With |T| >= |W| * Xmax, exact LSAP places Xmax tasks per clique
  // whenever worker columns carry any positive profit.
  const Fixture f = RandomFixture(50, 3, 3);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4);
  ASSERT_TRUE(problem.ok());
  auto result = SolveHtaApp(*problem);
  ASSERT_TRUE(result.ok());
  for (const TaskBundle& b : result->assignment.bundles) {
    EXPECT_EQ(b.size(), 4u);
  }
  EXPECT_EQ(result->assignment.AssignedTaskCount(), 12u);
}

TEST(HtaSolverTest, PaddedInstanceAssignsAllTasks) {
  // Fewer tasks than slots: every real task should land somewhere, and
  // no bundle exceeds Xmax (C1).
  const Fixture f = RandomFixture(5, 2, 4);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4);  // 8 slots.
  ASSERT_TRUE(problem.ok());
  for (const auto seed : {1ull, 2ull, 3ull}) {
    auto result = SolveHtaGre(*problem, seed);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(ValidateAssignment(*problem, result->assignment).ok());
  }
}

TEST(HtaSolverTest, DeterministicForFixedSeed) {
  const Fixture f = RandomFixture(30, 3, 5);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4);
  ASSERT_TRUE(problem.ok());
  auto a = SolveHtaGre(*problem, 99);
  auto b = SolveHtaGre(*problem, 99);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->assignment.bundles, b->assignment.bundles);
  EXPECT_DOUBLE_EQ(a->stats.motivation, b->stats.motivation);
}

TEST(HtaSolverTest, StatsPhasesArePopulated) {
  const Fixture f = RandomFixture(60, 4, 6);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 5);
  ASSERT_TRUE(problem.ok());
  auto result = SolveHtaApp(*problem);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->stats.matching_seconds, 0.0);
  EXPECT_GE(result->stats.lsap_seconds, 0.0);
  EXPECT_GE(result->stats.total_seconds,
            result->stats.matching_seconds + result->stats.lsap_seconds);
  EXPECT_GT(result->stats.matched_pairs, 0u);
  EXPECT_GT(result->stats.motivation, 0.0);
}

TEST(HtaSolverTest, BestOfTwoSwapNeverWorseThanNoSwap) {
  // 30 tasks for 3 * 4 slots: the instance is unpadded, every bundle is
  // full, and the Eq. 8 value the swap pass improves is the Eq. 3
  // motivation.
  const Fixture f = RandomFixture(30, 3, 8);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4);
  ASSERT_TRUE(problem.ok());
  HtaSolverOptions none;
  none.swap = SwapMode::kNone;
  HtaSolverOptions best2;
  best2.swap = SwapMode::kBestOfTwo;
  auto r_none = SolveHta(*problem, none);
  auto r_best = SolveHta(*problem, best2);
  ASSERT_TRUE(r_none.ok());
  ASSERT_TRUE(r_best.ok());
  EXPECT_GE(r_best->stats.motivation + 1e-9, r_none->stats.motivation);
}

TEST(HtaSolverTest, AppAtLeastAsGoodAsGreOnAverage) {
  // Exact LSAP should not lose to greedy LSAP in aggregate.
  double app_total = 0.0;
  double gre_total = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const Fixture f = RandomFixture(40, 4, 100 + trial);
    auto problem = HtaProblem::Create(&f.tasks, &f.workers, 5);
    ASSERT_TRUE(problem.ok());
    auto app = SolveHtaApp(*problem, 1);
    auto gre = SolveHtaGre(*problem, 1);
    ASSERT_TRUE(app.ok());
    ASSERT_TRUE(gre.ok());
    app_total += app->stats.motivation;
    gre_total += gre->stats.motivation;
  }
  EXPECT_GE(app_total, gre_total * 0.95);
}

TEST(HtaSolverTest, SingleWorkerSingleTask) {
  Fixture f = RandomFixture(1, 1, 10);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 1);
  ASSERT_TRUE(problem.ok());
  auto result = SolveHtaGre(*problem);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ValidateAssignment(*problem, result->assignment).ok());
}

TEST(HtaSolverTest, SolverNamesAreDescriptive) {
  HtaSolverOptions o;
  o.lsap = LsapMethod::kExactJv;
  EXPECT_EQ(SolverName(o), "hta-app");
  o.lsap = LsapMethod::kGreedy;
  EXPECT_EQ(SolverName(o), "hta-gre");
  o.swap = SwapMode::kBestOfTwo;
  EXPECT_EQ(SolverName(o), "hta-gre+best2");
  o.swap = SwapMode::kNone;
  EXPECT_EQ(SolverName(o), "hta-gre+noswap");
}

TEST(HtaSolverTest, ExtractAssignmentFollowsEquationSeven) {
  const Fixture f = RandomFixture(6, 2, 11);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 3);
  ASSERT_TRUE(problem.ok());
  const QapView view(&*problem);
  // Identity permutation: tasks 0-2 to worker 0's clique, 3-5 to
  // worker 1's clique.
  std::vector<int32_t> perm{0, 1, 2, 3, 4, 5};
  const Assignment a = ExtractAssignment(view, perm);
  ASSERT_EQ(a.bundles.size(), 2u);
  EXPECT_EQ(a.bundles[0], (TaskBundle{0, 1, 2}));
  EXPECT_EQ(a.bundles[1], (TaskBundle{3, 4, 5}));
}

}  // namespace
}  // namespace hta
