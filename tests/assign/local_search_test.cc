#include "assign/local_search.h"

#include <gtest/gtest.h>

#include "assign/baselines.h"
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
    KeywordVector v(48);
    const size_t bits = 2 + rng.NextBounded(5);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(48)));
    }
    f.tasks.emplace_back(i, std::move(v));
  }
  for (size_t q = 0; q < num_workers; ++q) {
    KeywordVector v(48);
    for (int b = 0; b < 4; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(48)));
    }
    const double alpha = rng.NextDouble();
    f.workers.emplace_back(q, std::move(v),
                           MotivationWeights{alpha, 1.0 - alpha});
  }
  return f;
}

TEST(LocalSearchTest, NeverDecreasesObjectiveAndStaysFeasible) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const Fixture f = RandomFixture(40, 3, seed);
    auto problem = HtaProblem::Create(&f.tasks, &f.workers, 5);
    ASSERT_TRUE(problem.ok());
    auto seed_solution = SolveHtaGre(*problem, seed);
    ASSERT_TRUE(seed_solution.ok());
    auto improved = ImproveAssignment(*problem, seed_solution->assignment,
                                      LocalSearchOptions{});
    ASSERT_TRUE(improved.ok());
    EXPECT_GE(improved->motivation + 1e-9, improved->initial_motivation);
    EXPECT_TRUE(ValidateAssignment(*problem, improved->assignment).ok());
    EXPECT_NEAR(improved->initial_motivation, seed_solution->stats.motivation,
                1e-9);
  }
}

TEST(LocalSearchTest, ImprovesRandomAssignments) {
  // Random seeds leave a lot on the table; local search must recover a
  // large part of it.
  const Fixture f = RandomFixture(50, 3, 7);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 5);
  ASSERT_TRUE(problem.ok());
  Rng rng(3);
  auto random_seed = SolveRandomAssignment(*problem, &rng);
  ASSERT_TRUE(random_seed.ok());
  auto improved = ImproveAssignment(*problem, random_seed->assignment,
                                    LocalSearchOptions{});
  ASSERT_TRUE(improved.ok());
  // Random bundles are already diversity-rich (random sets are far
  // apart), so the head-room is mostly on the relevance side; expect a
  // clear but not dramatic lift.
  EXPECT_GT(improved->motivation, 1.02 * improved->initial_motivation)
      << "local search should lift a random assignment";
  EXPECT_GT(improved->improving_moves, 0u);
}

TEST(LocalSearchTest, ReachesLocalOptimumFlagOnEasyInstance) {
  const Fixture f = RandomFixture(12, 2, 9);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 3);
  ASSERT_TRUE(problem.ok());
  auto seed_solution = SolveHtaGre(*problem, 1);
  ASSERT_TRUE(seed_solution.ok());
  LocalSearchOptions options;
  options.max_passes = 50;
  auto improved =
      ImproveAssignment(*problem, seed_solution->assignment, options);
  ASSERT_TRUE(improved.ok());
  EXPECT_TRUE(improved->reached_local_optimum);
}

TEST(LocalSearchTest, InsertFillsSpareCapacity) {
  // Start from an empty assignment: with no bundle slot to replace or
  // exchange, inserts must fill the bundles (adding a task never hurts
  // with non-negative terms).
  const Fixture f = RandomFixture(30, 2, 11);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4);
  ASSERT_TRUE(problem.ok());
  Assignment empty;
  empty.bundles.assign(2, {});
  auto improved = ImproveAssignment(*problem, empty, LocalSearchOptions{});
  ASSERT_TRUE(improved.ok());
  EXPECT_EQ(improved->assignment.AssignedTaskCount(), 8u);
  EXPECT_GT(improved->motivation, 0.0);
}

TEST(LocalSearchTest, NearOptimalOnTinyInstances) {
  // On brute-forceable instances, GRE + local search should land very
  // close to the optimum.
  double total_ratio = 0.0;
  int n = 0;
  for (uint64_t seed = 20; seed < 26; ++seed) {
    const Fixture f = RandomFixture(8, 2, seed);
    auto problem = HtaProblem::Create(&f.tasks, &f.workers, 3);
    ASSERT_TRUE(problem.ok());
    auto best = SolveHtaBruteForce(*problem);
    ASSERT_TRUE(best.ok());
    if (best->motivation <= 0.0) continue;
    auto gre = SolveHtaGre(*problem, 1);
    ASSERT_TRUE(gre.ok());
    LocalSearchOptions options;
    options.max_passes = 50;
    auto improved = ImproveAssignment(*problem, gre->assignment, options);
    ASSERT_TRUE(improved.ok());
    EXPECT_LE(improved->motivation, best->motivation + 1e-9);
    total_ratio += improved->motivation / best->motivation;
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_GT(total_ratio / n, 0.9)
      << "GRE + local search should average >90% of optimal on tiny "
         "instances";
}

TEST(LocalSearchTest, RejectsInfeasibleSeed) {
  const Fixture f = RandomFixture(10, 2, 31);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 2);
  ASSERT_TRUE(problem.ok());
  Assignment bogus;
  bogus.bundles = {{0, 1, 2}, {}};  // C1 violation: 3 > xmax 2.
  EXPECT_FALSE(
      ImproveAssignment(*problem, bogus, LocalSearchOptions{}).ok());
}

}  // namespace
}  // namespace hta
