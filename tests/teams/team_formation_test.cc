#include "teams/team_formation.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "reference/brute_force_teams.h"
#include "util/rng.h"

namespace hta {
namespace {

using reference::FormTeamsBruteForce;

constexpr size_t kUniverse = 32;

Worker W(uint64_t id, std::initializer_list<KeywordId> ids) {
  return Worker(id, KeywordVector(kUniverse, ids));
}

CollaborativeTask T(std::initializer_list<KeywordId> ids, size_t team_size) {
  return CollaborativeTask{Task(0, KeywordVector(kUniverse, ids)), team_size};
}

TEST(TeamCoverageTest, FullPartialAndEmpty) {
  const std::vector<Worker> workers = {W(0, {1, 2}), W(1, {3}), W(2, {9})};
  const Task task(0, KeywordVector(kUniverse, {1, 2, 3}));
  EXPECT_DOUBLE_EQ(TeamCoverage(task, {0, 1}, workers), 1.0);
  EXPECT_NEAR(TeamCoverage(task, {0}, workers), 2.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(TeamCoverage(task, {2}, workers), 0.0);
  EXPECT_DOUBLE_EQ(TeamCoverage(task, {}, workers), 0.0);
}

TEST(TeamCoverageTest, KeywordlessTaskFullyCovered) {
  const std::vector<Worker> workers = {W(0, {1})};
  const Task task(0, KeywordVector(kUniverse));
  EXPECT_DOUBLE_EQ(TeamCoverage(task, {0}, workers), 1.0);
}

TEST(TeamScoreTest, EmptyTeamScoresZero) {
  const std::vector<Worker> workers = {W(0, {1})};
  const Task task(0, KeywordVector(kUniverse, {1}));
  EXPECT_DOUBLE_EQ(
      TeamScore(task, {}, workers, TeamScoreWeights{}, DistanceKind::kJaccard),
      0.0);
}

TEST(TeamScoreTest, ComplementarityRewardsDiverseMembers) {
  const std::vector<Worker> workers = {W(0, {1, 2}), W(1, {1, 2}),
                                       W(2, {5, 6})};
  const Task task(0, KeywordVector(kUniverse, {1, 2, 5, 6}));
  TeamScoreWeights weights;
  weights.coverage = 0.0;
  weights.relevance = 0.0;
  weights.complementarity = 1.0;
  const double twins = TeamScore(task, {0, 1}, workers, weights,
                                 DistanceKind::kJaccard);
  const double diverse = TeamScore(task, {0, 2}, workers, weights,
                                   DistanceKind::kJaccard);
  EXPECT_GT(diverse, twins);
}

TEST(FormTeamsGreedyTest, PicksCoveringPair) {
  // Task needs {1,2,3,4}; workers 0 and 2 jointly cover it, worker 1
  // overlaps worker 0 and covers less.
  const std::vector<Worker> workers = {W(0, {1, 2}), W(1, {1, 2}),
                                       W(2, {3, 4})};
  TeamScoreWeights weights;
  weights.complementarity = 0.0;
  weights.relevance = 0.0;
  auto teams = FormTeamsGreedy({T({1, 2, 3, 4}, 2)}, workers, weights);
  ASSERT_TRUE(teams.ok());
  ASSERT_EQ(teams->teams.size(), 1u);
  std::vector<WorkerIndex> team = teams->teams[0];
  std::sort(team.begin(), team.end());
  EXPECT_EQ(team, (std::vector<WorkerIndex>{0, 2}));
}

TEST(FormTeamsGreedyTest, DisjointByDefault) {
  const std::vector<Worker> workers = {W(0, {1}), W(1, {2}), W(2, {3}),
                                       W(3, {4})};
  auto teams = FormTeamsGreedy({T({1, 2}, 2), T({1, 2}, 2)}, workers,
                               TeamScoreWeights{});
  ASSERT_TRUE(teams.ok());
  std::set<WorkerIndex> seen;
  for (const auto& team : teams->teams) {
    for (WorkerIndex m : team) {
      EXPECT_TRUE(seen.insert(m).second) << "worker in two teams";
    }
  }
  EXPECT_EQ(teams->TotalMembers(), 4u);
}

TEST(FormTeamsGreedyTest, OverlapAllowsReuse) {
  const std::vector<Worker> workers = {W(0, {1, 2}), W(1, {9})};
  auto teams = FormTeamsGreedy({T({1, 2}, 1), T({1, 2}, 1)}, workers,
                               TeamScoreWeights{}, DistanceKind::kJaccard,
                               /*allow_overlap=*/true);
  ASSERT_TRUE(teams.ok());
  EXPECT_EQ(teams->teams[0], teams->teams[1]);
  EXPECT_EQ(teams->teams[0], (std::vector<WorkerIndex>{0}));
}

TEST(FormTeamsGreedyTest, RunsOutOfWorkersGracefully) {
  const std::vector<Worker> workers = {W(0, {1}), W(1, {2})};
  auto teams = FormTeamsGreedy({T({1, 2}, 2), T({1, 2}, 2)}, workers,
                               TeamScoreWeights{});
  ASSERT_TRUE(teams.ok());
  EXPECT_EQ(teams->teams[0].size(), 2u);
  EXPECT_TRUE(teams->teams[1].empty());
}

TEST(FormTeamsGreedyTest, RejectsDegenerateInputs) {
  const std::vector<Worker> workers = {W(0, {1})};
  EXPECT_FALSE(FormTeamsGreedy({}, workers, TeamScoreWeights{}).ok());
  EXPECT_FALSE(FormTeamsGreedy({T({1}, 1)}, {}, TeamScoreWeights{}).ok());
  EXPECT_FALSE(FormTeamsGreedy({T({1}, 0)}, workers, TeamScoreWeights{}).ok());
}

TEST(FormTeamsBruteForceTest, RefusesLargeInstances) {
  std::vector<Worker> workers;
  for (uint64_t i = 0; i < 13; ++i) workers.push_back(W(i, {1}));
  EXPECT_FALSE(
      FormTeamsBruteForce({T({1}, 1)}, workers, TeamScoreWeights{}).ok());
  const std::vector<Worker> few = {W(0, {1}), W(1, {1}), W(2, {1}),
                                   W(3, {1}), W(4, {1})};
  EXPECT_FALSE(
      FormTeamsBruteForce({T({1}, 6)}, few, TeamScoreWeights{}).ok());
}

TEST(FormTeamsBruteForceTest, GreedyWithinSubmodularBoundOnPureCoverage) {
  // With pure coverage (monotone submodular) greedy guarantees
  // (1 - 1/e) of the per-task optimum.
  Rng rng(5);
  TeamScoreWeights weights;
  weights.complementarity = 0.0;
  weights.relevance = 0.0;
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Worker> workers;
    for (uint64_t q = 0; q < 8; ++q) {
      KeywordVector v(kUniverse);
      for (int b = 0; b < 3; ++b) {
        v.Set(static_cast<KeywordId>(rng.NextBounded(kUniverse)));
      }
      workers.emplace_back(q, std::move(v));
    }
    KeywordVector need(kUniverse);
    for (int b = 0; b < 8; ++b) {
      need.Set(static_cast<KeywordId>(rng.NextBounded(kUniverse)));
    }
    const CollaborativeTask ct{Task(0, need), 3};

    auto greedy = FormTeamsGreedy({ct}, workers, weights);
    auto exact = FormTeamsBruteForce({ct}, workers, weights);
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(exact.ok());
    const double g = TeamCoverage(ct.task, greedy->teams[0], workers);
    const double e = TeamCoverage(ct.task, exact->teams[0], workers);
    EXPECT_LE(g, e + 1e-9);
    EXPECT_GE(g + 1e-9, (1.0 - 1.0 / 2.718281828) * e)
        << "greedy below the (1-1/e) submodular bound";
  }
}

TEST(FormTeamsBruteForceTest, GreedyCloseToExactOnMixedWeights) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Worker> workers;
    for (uint64_t q = 0; q < 7; ++q) {
      KeywordVector v(kUniverse);
      for (int b = 0; b < 4; ++b) {
        v.Set(static_cast<KeywordId>(rng.NextBounded(kUniverse)));
      }
      workers.emplace_back(q, std::move(v));
    }
    KeywordVector need(kUniverse);
    for (int b = 0; b < 6; ++b) {
      need.Set(static_cast<KeywordId>(rng.NextBounded(kUniverse)));
    }
    const CollaborativeTask ct{Task(0, need), 3};
    const TeamScoreWeights weights;  // Mixed defaults.
    auto greedy = FormTeamsGreedy({ct}, workers, weights);
    auto exact = FormTeamsBruteForce({ct}, workers, weights);
    ASSERT_TRUE(greedy.ok());
    ASSERT_TRUE(exact.ok());
    const double g = TeamScore(ct.task, greedy->teams[0], workers, weights,
                               DistanceKind::kJaccard);
    const double e = TeamScore(ct.task, exact->teams[0], workers, weights,
                               DistanceKind::kJaccard);
    EXPECT_LE(g, e + 1e-9);
    EXPECT_GE(g, 0.5 * e - 1e-9);
  }
}

}  // namespace
}  // namespace hta
