#include "core/distance_oracle.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace hta {
namespace {

std::vector<Task> RandomTasks(size_t n, size_t universe, uint64_t seed) {
  Rng rng(seed);
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    KeywordVector v(universe);
    const size_t bits = 2 + rng.NextBounded(6);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(universe)));
    }
    tasks.emplace_back(i, std::move(v));
  }
  return tasks;
}

TEST(DistanceOracleTest, OnTheFlyMatchesDirectComputation) {
  const std::vector<Task> tasks = RandomTasks(20, 64, 1);
  const TaskDistanceOracle oracle(&tasks, DistanceKind::kJaccard);
  EXPECT_FALSE(oracle.has_dense_matrix());
  for (TaskIndex i = 0; i < 20; ++i) {
    for (TaskIndex j = 0; j < 20; ++j) {
      EXPECT_DOUBLE_EQ(
          oracle(i, j),
          i == j ? 0.0
                 : PairwiseTaskDiversity(DistanceKind::kJaccard, tasks[i],
                                         tasks[j]));
    }
  }
}

// Both distance sources: keyword rows, and a caller-supplied matrix
// copied from them.
TEST(DistanceOracleTest, SymmetricAndZeroDiagonal) {
  const std::vector<Task> tasks = RandomTasks(15, 64, 3);
  const TaskDistanceOracle keywords(&tasks, DistanceKind::kHamming);
  std::vector<double> matrix(15 * 15);
  for (TaskIndex i = 0; i < 15; ++i) {
    for (TaskIndex j = 0; j < 15; ++j) matrix[i * 15 + j] = keywords(i, j);
  }
  auto dense =
      TaskDistanceOracle::FromDenseMatrix(&tasks, DistanceKind::kHamming,
                                          matrix);
  ASSERT_TRUE(dense.ok()) << dense.status();
  const TaskDistanceOracle& from_matrix = *dense;
  EXPECT_TRUE(from_matrix.has_dense_matrix());
  for (const TaskDistanceOracle* oracle : {&keywords, &from_matrix}) {
    for (TaskIndex i = 0; i < 15; ++i) {
      EXPECT_EQ((*oracle)(i, i), 0.0);
      for (TaskIndex j = 0; j < 15; ++j) {
        EXPECT_EQ((*oracle)(i, j), (*oracle)(j, i));
      }
    }
  }
}

TEST(DistanceOracleTest, ReportsKindAndCount) {
  const std::vector<Task> tasks = RandomTasks(5, 64, 5);
  const TaskDistanceOracle oracle(&tasks, DistanceKind::kCosineAngular);
  EXPECT_EQ(oracle.kind(), DistanceKind::kCosineAngular);
  EXPECT_EQ(oracle.task_count(), 5u);
}

TEST(DistanceOracleTest, SingleTask) {
  const std::vector<Task> tasks = RandomTasks(1, 64, 6);
  const TaskDistanceOracle keywords(&tasks, DistanceKind::kJaccard);
  EXPECT_EQ(keywords(0, 0), 0.0);
  auto dense = TaskDistanceOracle::FromDenseMatrix(
      &tasks, DistanceKind::kJaccard, std::vector<double>{0.0});
  ASSERT_TRUE(dense.ok()) << dense.status();
  EXPECT_EQ((*dense)(0, 0), 0.0);
}

}  // namespace
}  // namespace hta
