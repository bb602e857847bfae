#include "qap/hta_problem.h"

#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/catalog_cache.h"

namespace hta {
namespace {

std::vector<Task> TwoTasks() {
  std::vector<Task> tasks;
  tasks.emplace_back(0, KeywordVector(16, {1, 2}));
  tasks.emplace_back(1, KeywordVector(16, {3, 4}));
  return tasks;
}

std::vector<Worker> OneWorker() {
  std::vector<Worker> workers;
  workers.emplace_back(0, KeywordVector(16, {1, 3}));
  return workers;
}

TEST(HtaProblemTest, CreateSucceedsOnValidInput) {
  const auto tasks = TwoTasks();
  const auto workers = OneWorker();
  auto problem = HtaProblem::Create(&tasks, &workers, 2);
  ASSERT_TRUE(problem.ok());
  EXPECT_EQ(problem->task_count(), 2u);
  EXPECT_EQ(problem->worker_count(), 1u);
  EXPECT_EQ(problem->xmax(), 2u);
  EXPECT_EQ(problem->distance_kind(), DistanceKind::kJaccard);
}

TEST(HtaProblemTest, RejectsZeroXmax) {
  const auto tasks = TwoTasks();
  const auto workers = OneWorker();
  EXPECT_EQ(HtaProblem::Create(&tasks, &workers, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(HtaProblemTest, RejectsEmptyTasksOrWorkers) {
  const std::vector<Task> no_tasks;
  const std::vector<Worker> no_workers;
  const auto tasks = TwoTasks();
  const auto workers = OneWorker();
  EXPECT_FALSE(HtaProblem::Create(&no_tasks, &workers, 1).ok());
  EXPECT_FALSE(HtaProblem::Create(&tasks, &no_workers, 1).ok());
}

TEST(HtaProblemTest, RejectsNonMetricByDefault) {
  const auto tasks = TwoTasks();
  const auto workers = OneWorker();
  auto r = HtaProblem::Create(&tasks, &workers, 1, DistanceKind::kDice);
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_TRUE(HtaProblem::Create(&tasks, &workers, 1, DistanceKind::kDice,
                                 /*allow_non_metric=*/true)
                  .ok());
}

TEST(HtaProblemTest, RejectsNegativeOrZeroSumWeights) {
  const auto tasks = TwoTasks();
  std::vector<Worker> workers;
  workers.emplace_back(0, KeywordVector(16, {1}), MotivationWeights{0.0, 0.0});
  EXPECT_FALSE(HtaProblem::Create(&tasks, &workers, 1).ok());
}

// NaN fails every comparison, so a plain range test lets it through;
// a NaN or infinite weight must be rejected by every entry point, not
// reach the LSAP as a NaN profit.
TEST(HtaProblemTest, RejectsNonFiniteWeights) {
  const auto tasks = TwoTasks();
  const CatalogCache cache(&tasks, DistanceKind::kJaccard);
  const std::vector<size_t> both = {0, 1};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const MotivationWeights bad_weights[] = {
      {nan, 0.5}, {0.5, nan}, {nan, nan}, {inf, 0.5}, {0.5, inf}, {-inf, 0.5}};
  for (const MotivationWeights& weights : bad_weights) {
    std::vector<Worker> workers;
    workers.emplace_back(0, KeywordVector(16, {1}), weights);
    const std::string label =
        std::to_string(weights.alpha) + ", " + std::to_string(weights.beta);
    EXPECT_EQ(HtaProblem::Create(&tasks, &workers, 2).status().code(),
              StatusCode::kInvalidArgument)
        << label;
    EXPECT_EQ(HtaProblem::CreateWithMatrices(&tasks, &workers, 2,
                                             {0.0, 0.5, 0.5, 0.0}, {0.1, 0.2})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << label;
    EXPECT_EQ(
        HtaProblem::CreateFromSubset(cache, both, &workers, 2).status().code(),
        StatusCode::kInvalidArgument)
        << label;
  }
}

TEST(HtaProblemTest, AcceptsUnnormalizedWeights) {
  // The paper's Example 1 uses (0.6, 0.3); this must be accepted.
  const auto tasks = TwoTasks();
  std::vector<Worker> workers;
  workers.emplace_back(0, KeywordVector(16, {1}), MotivationWeights{0.6, 0.3});
  EXPECT_TRUE(HtaProblem::Create(&tasks, &workers, 1).ok());
}

TEST(HtaProblemTest, RelevanceDerivedFromKeywords) {
  const auto tasks = TwoTasks();
  const auto workers = OneWorker();
  auto problem = HtaProblem::Create(&tasks, &workers, 2);
  ASSERT_TRUE(problem.ok());
  // task0 = {1,2}, worker = {1,3}: J-sim = 1/3 → rel = 1/3.
  EXPECT_NEAR(problem->Relevance(0, 0), 1.0 / 3.0, 1e-12);
}

TEST(HtaProblemTest, CreateWithMatricesOverridesRelevance) {
  const auto tasks = TwoTasks();
  const auto workers = OneWorker();
  const std::vector<double> distances{0.0, 0.9, 0.9, 0.0};
  const std::vector<double> relevance{0.28, 0.67};
  auto problem = HtaProblem::CreateWithMatrices(&tasks, &workers, 2,
                                                distances, relevance);
  ASSERT_TRUE(problem.ok());
  EXPECT_DOUBLE_EQ(problem->Relevance(0, 0), 0.28);
  EXPECT_DOUBLE_EQ(problem->Relevance(1, 0), 0.67);
  // The oracle caches distances as float32.
  EXPECT_NEAR(problem->oracle()(0, 1), 0.9, 1e-6);
}

TEST(HtaProblemTest, CreateWithMatricesValidatesShapes) {
  const auto tasks = TwoTasks();
  const auto workers = OneWorker();
  // Asymmetric distance matrix.
  EXPECT_FALSE(HtaProblem::CreateWithMatrices(
                   &tasks, &workers, 1, {0.0, 0.5, 0.4, 0.0}, {0.1, 0.2})
                   .ok());
  // Nonzero diagonal.
  EXPECT_FALSE(HtaProblem::CreateWithMatrices(
                   &tasks, &workers, 1, {0.1, 0.5, 0.5, 0.0}, {0.1, 0.2})
                   .ok());
  // Wrong relevance size.
  EXPECT_FALSE(HtaProblem::CreateWithMatrices(
                   &tasks, &workers, 1, {0.0, 0.5, 0.5, 0.0}, {0.1})
                   .ok());
  // Relevance out of range.
  EXPECT_FALSE(HtaProblem::CreateWithMatrices(
                   &tasks, &workers, 1, {0.0, 0.5, 0.5, 0.0}, {0.1, 1.2})
                   .ok());
}

TEST(HtaProblemTest, CreateWithMatricesRejectsNonFiniteEntries) {
  const auto tasks = TwoTasks();
  const auto workers = OneWorker();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    // Relevance: NaN passes a plain [0, 1] range test.
    auto rel = HtaProblem::CreateWithMatrices(
        &tasks, &workers, 1, {0.0, 0.5, 0.5, 0.0}, {0.1, bad});
    EXPECT_EQ(rel.status().code(), StatusCode::kInvalidArgument) << bad;
    // Distances, symmetric and on the diagonal: named as non-finite,
    // not as asymmetric (NaN) or accepted (inf).
    for (const std::vector<double>& distances :
         {std::vector<double>{0.0, bad, bad, 0.0},
          std::vector<double>{bad, 0.5, 0.5, 0.0}}) {
      auto dist = HtaProblem::CreateWithMatrices(&tasks, &workers, 1,
                                                 distances, {0.1, 0.2});
      ASSERT_EQ(dist.status().code(), StatusCode::kInvalidArgument) << bad;
      EXPECT_NE(dist.status().message().find("finite"), std::string::npos)
          << dist.status();
    }
  }
}

}  // namespace
}  // namespace hta
