#include "assign/baselines.h"

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

TEST(StrategyNameTest, AllNamesStable) {
  EXPECT_EQ(StrategyName(StrategyKind::kHtaGre), "hta-gre");
  EXPECT_EQ(StrategyName(StrategyKind::kHtaGreDiv), "hta-gre-div");
  EXPECT_EQ(StrategyName(StrategyKind::kHtaGreRel), "hta-gre-rel");
  EXPECT_EQ(StrategyName(StrategyKind::kRandom), "random");
}

TEST(FixedWeightsTest, DivOnlyIsFeasibleAndReportsTrueObjective) {
  const Fixture f = RandomFixture(30, 3, 1);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4);
  ASSERT_TRUE(problem.ok());
  auto result =
      SolveWithFixedWeights(*problem, MotivationWeights::DiversityOnly());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ValidateAssignment(*problem, result->assignment).ok());
  // Reported motivation is computed under the workers' own weights.
  EXPECT_NEAR(result->stats.motivation,
              TotalMotivation(*problem, result->assignment), 1e-9);
}

TEST(FixedWeightsTest, DoesNotMutateInputWorkers) {
  const Fixture f = RandomFixture(20, 2, 2);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 3);
  ASSERT_TRUE(problem.ok());
  const double alpha_before = f.workers[0].weights().alpha;
  ASSERT_TRUE(
      SolveWithFixedWeights(*problem, MotivationWeights::RelevanceOnly())
          .ok());
  EXPECT_DOUBLE_EQ(f.workers[0].weights().alpha, alpha_before);
}

TEST(RandomAssignmentTest, FeasibleAndUsesCapacity) {
  const Fixture f = RandomFixture(50, 3, 3);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 5);
  ASSERT_TRUE(problem.ok());
  Rng rng(9);
  auto result = SolveRandomAssignment(*problem, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ValidateAssignment(*problem, result->assignment).ok());
  EXPECT_EQ(result->assignment.AssignedTaskCount(), 15u);  // 3 * 5.
}

TEST(RandomAssignmentTest, FewTasksAllAssigned) {
  const Fixture f = RandomFixture(4, 3, 4);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 5);
  ASSERT_TRUE(problem.ok());
  Rng rng(9);
  auto result = SolveRandomAssignment(*problem, &rng);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->assignment.AssignedTaskCount(), 4u);
}

TEST(RandomAssignmentTest, DifferentDrawsDiffer) {
  const Fixture f = RandomFixture(40, 3, 5);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 5);
  ASSERT_TRUE(problem.ok());
  Rng rng(10);
  auto a = SolveRandomAssignment(*problem, &rng);
  auto b = SolveRandomAssignment(*problem, &rng);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->assignment.bundles, b->assignment.bundles);
}

TEST(StrategyDispatchTest, AllStrategiesProduceFeasibleAssignments) {
  const Fixture f = RandomFixture(40, 3, 7);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4);
  ASSERT_TRUE(problem.ok());
  Rng rng(3);
  for (StrategyKind kind :
       {StrategyKind::kHtaGre, StrategyKind::kHtaGreDiv,
        StrategyKind::kHtaGreRel, StrategyKind::kRandom}) {
    auto result = SolveWithStrategy(*problem, kind, 5, &rng);
    ASSERT_TRUE(result.ok()) << StrategyName(kind);
    EXPECT_TRUE(ValidateAssignment(*problem, result->assignment).ok())
        << StrategyName(kind);
  }
}

TEST(StrategyQualityTest, DivOnlyMaximizesDiversityRelOnlyRelevance) {
  // Sanity on objectives: under pure-diversity evaluation the DIV
  // strategy should beat the REL strategy, and vice versa.
  // HTA-GRE is a randomized 1/8-approximation, so compare strategy
  // means over several seeds rather than single draws.
  const Fixture f = RandomFixture(40, 3, 8);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4);
  ASSERT_TRUE(problem.ok());

  auto eval = [&](const Assignment& a, MotivationWeights w) {
    std::vector<Worker> evaluators;
    for (const Worker& worker : f.workers) {
      evaluators.emplace_back(worker.id(), worker.interests(), w);
    }
    auto eval_problem = HtaProblem::Create(&f.tasks, &evaluators, 4);
    return TotalMotivation(*eval_problem, a);
  };

  double div_on_div = 0.0, rel_on_div = 0.0;
  double div_on_rel = 0.0, rel_on_rel = 0.0;
  constexpr int kSeeds = 10;
  for (int s = 0; s < kSeeds; ++s) {
    auto div = SolveWithFixedWeights(*problem,
                                     MotivationWeights::DiversityOnly(), s);
    auto rel = SolveWithFixedWeights(*problem,
                                     MotivationWeights::RelevanceOnly(), s);
    ASSERT_TRUE(div.ok());
    ASSERT_TRUE(rel.ok());
    div_on_div += eval(div->assignment, MotivationWeights::DiversityOnly());
    rel_on_div += eval(rel->assignment, MotivationWeights::DiversityOnly());
    div_on_rel += eval(div->assignment, MotivationWeights::RelevanceOnly());
    rel_on_rel += eval(rel->assignment, MotivationWeights::RelevanceOnly());
  }
  EXPECT_GE(div_on_div, rel_on_div - 1e-9)
      << "diversity-only strategy must win under the diversity objective";
  EXPECT_GE(rel_on_rel, div_on_rel - 1e-9)
      << "relevance-only strategy must win under the relevance objective";
}

}  // namespace
}  // namespace hta
