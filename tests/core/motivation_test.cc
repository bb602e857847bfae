// Eq. 1-3 on three tasks with known Jaccard distances. Eq. 3 is scored
// through BundleMotivation over a lazy HtaProblem::Create instance
// (no relevance sweep, so O(|W|) to build).
#include "core/motivation.h"

#include <algorithm>
#include <memory>

#include <gtest/gtest.h>

#include "assign/assignment.h"
#include "util/rng.h"

namespace hta {
namespace {

// Eq. 3 of `bundle` for `worker` over `tasks` under Jaccard.
double Eq3(const std::vector<Task>& tasks, const Worker& worker,
           const TaskBundle& bundle) {
  const std::vector<Worker> workers = {worker};
  auto problem = HtaProblem::Create(&tasks, &workers,
                                    std::max<size_t>(bundle.size(), 1));
  HTA_CHECK(problem.ok()) << problem.status();
  return BundleMotivation(*problem, 0, bundle);
}

class MotivationTest : public ::testing::Test {
 protected:
  MotivationTest() {
    // Three tasks with known pairwise Jaccard distances.
    tasks_.emplace_back(0, KeywordVector(64, {1, 2}));
    tasks_.emplace_back(1, KeywordVector(64, {2, 3}));
    tasks_.emplace_back(2, KeywordVector(64, {5, 6}));
    oracle_ = std::make_unique<TaskDistanceOracle>(&tasks_,
                                                   DistanceKind::kJaccard);
  }

  std::vector<Task> tasks_;
  std::unique_ptr<TaskDistanceOracle> oracle_;
};

TEST_F(MotivationTest, SetDiversitySumsPairs) {
  // d(0,1) = 2/3, d(0,2) = 1, d(1,2) = 1.
  EXPECT_NEAR(SetDiversity({0, 1, 2}, *oracle_), 2.0 / 3.0 + 1.0 + 1.0,
              1e-12);
}

TEST_F(MotivationTest, SetDiversityOfSingletonAndEmpty) {
  EXPECT_DOUBLE_EQ(SetDiversity({0}, *oracle_), 0.0);
  EXPECT_DOUBLE_EQ(SetDiversity({}, *oracle_), 0.0);
}

TEST_F(MotivationTest, SetRelevanceSumsPerTask) {
  const std::vector<Worker> workers = {Worker(0, KeywordVector(64, {1, 2}))};
  auto problem = HtaProblem::Create(&tasks_, &workers, 3);
  ASSERT_TRUE(problem.ok());
  // rel(t0) = 1, rel(t1) = 1 - 2/3 = 1/3, rel(t2) = 0.
  double tr = 0.0;
  for (TaskIndex t = 0; t < 3; ++t) tr += problem->Relevance(t, 0);
  EXPECT_NEAR(tr, 1.0 + 1.0 / 3.0, 1e-12);
}

TEST_F(MotivationTest, MotivationEquationThree) {
  const Worker worker(0, KeywordVector(64, {1, 2}),
                      MotivationWeights{0.3, 0.7});
  // TD = 2/3 + 1 + 1, TR = 1 + 1/3 + 0, |T'| - 1 = 2.
  const double td = 2.0 / 3.0 + 1.0 + 1.0;
  const double tr = 1.0 + 1.0 / 3.0;
  const double expected = 2.0 * 0.3 * td + 0.7 * 2.0 * tr;
  EXPECT_NEAR(Eq3(tasks_, worker, {0, 1, 2}), expected, 1e-12);
}

TEST_F(MotivationTest, EmptyBundleHasZeroMotivation) {
  const Worker worker(0, KeywordVector(64, {1}));
  EXPECT_DOUBLE_EQ(Eq3(tasks_, worker, {}), 0.0);
}

TEST_F(MotivationTest, SingletonBundleHasZeroMotivation) {
  // |T'| - 1 == 0 kills the relevance term and there are no pairs.
  const Worker worker(0, KeywordVector(64, {1, 2}),
                      MotivationWeights{0.0, 1.0});
  EXPECT_DOUBLE_EQ(Eq3(tasks_, worker, {0}), 0.0);
}

TEST_F(MotivationTest, PureDiversityWorkerIgnoresRelevance) {
  const Worker div_worker(0, KeywordVector(64, {1, 2}),
                          MotivationWeights::DiversityOnly());
  const TaskBundle bundle{0, 1, 2};
  EXPECT_NEAR(Eq3(tasks_, div_worker, bundle),
              2.0 * SetDiversity(bundle, *oracle_), 1e-12);
}

TEST_F(MotivationTest, PureRelevanceWorkerIgnoresDiversity) {
  const Worker rel_worker(0, KeywordVector(64, {1, 2}),
                          MotivationWeights::RelevanceOnly());
  // (|T'| - 1) * TR = 1 * (rel(t0) + rel(t1)) = 1 + 1/3.
  EXPECT_NEAR(Eq3(tasks_, rel_worker, {0, 1}), 1.0 * (1.0 + 1.0 / 3.0),
              1e-12);
}

TEST(MotivationWeightsTest, NormalizedSumsToOne) {
  const MotivationWeights w = MotivationWeights::Normalized(0.2, 0.6);
  EXPECT_NEAR(w.alpha, 0.25, 1e-12);
  EXPECT_NEAR(w.beta, 0.75, 1e-12);
}

TEST(MotivationWeightsTest, NormalizedZeroFallsBackToHalf) {
  const MotivationWeights w = MotivationWeights::Normalized(0.0, 0.0);
  EXPECT_DOUBLE_EQ(w.alpha, 0.5);
  EXPECT_DOUBLE_EQ(w.beta, 0.5);
}

TEST(MotivationWeightsDeathTest, NegativeWeightsAbort) {
  EXPECT_DEATH({ MotivationWeights::Normalized(-0.1, 0.5); },
               "non-negative");
}

TEST(MotivationPropertyTest, MotivationMonotoneInAlphaForDiverseBundle) {
  // For a bundle where the (scaled) diversity term exceeds the
  // relevance term, increasing alpha increases motivation.
  std::vector<Task> tasks;
  tasks.emplace_back(0, KeywordVector(64, {1}));
  tasks.emplace_back(1, KeywordVector(64, {2}));
  const KeywordVector no_interest(64, {9});
  double previous = -1.0;
  for (double alpha = 0.0; alpha <= 1.0; alpha += 0.1) {
    const Worker w(0, no_interest, MotivationWeights{alpha, 1.0 - alpha});
    const double m = Eq3(tasks, w, {0, 1});
    EXPECT_GT(m, previous);
    previous = m;
  }
}

}  // namespace
}  // namespace hta
