// Equivalence suite for the incremental local search: ImproveAssignment
// (O(1) deltas from BundleStatsCache, parallel best-candidate scans)
// must reproduce a test-local serial best-improvement driver built on
// the naive NaiveReplaceDelta / NaiveInsertDelta evaluators move-for-
// move (identical final assignments and motivation), across every
// DistanceKind, varying Xmax, and under-capacity seeds — and must be
// bit-identical at any thread cap.
#include "assign/local_search.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "assign/hta_solver.h"
#include "reference/naive_deltas.h"
#include "util/rng.h"

namespace hta {
namespace {

using reference::NaiveReplaceDelta;
using reference::NaiveInsertDelta;

// Force a multi-threaded global pool (before first use) so thread caps
// of 4 actually take the worker-thread code path on single-core CI.
const bool kForcePoolSize = [] {
  setenv("HTA_THREADS", "4", /*overwrite=*/0);
  return true;
}();

struct Fixture {
  std::vector<Task> tasks;
  std::vector<Worker> workers;
};

Fixture RandomFixture(size_t num_tasks, size_t num_workers, uint64_t seed) {
  Fixture f;
  Rng rng(seed);
  for (size_t i = 0; i < num_tasks; ++i) {
    KeywordVector v(64);
    const size_t bits = 2 + rng.NextBounded(6);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(64)));
    }
    f.tasks.emplace_back(i, std::move(v));
  }
  for (size_t q = 0; q < num_workers; ++q) {
    KeywordVector v(64);
    for (int b = 0; b < 5; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(64)));
    }
    const double alpha = rng.NextDouble();
    f.workers.emplace_back(q, std::move(v),
                           MotivationWeights{alpha, 1.0 - alpha});
  }
  return f;
}

LocalSearchResult Improve(const HtaProblem& problem, const Assignment& seed,
                          size_t threads = 0) {
  LocalSearchOptions options;
  options.threads = threads;
  auto improved = ImproveAssignment(problem, seed, options);
  HTA_CHECK(improved.ok()) << improved.status();
  return *improved;
}

// The tie rule of the production scans: a later candidate displaces the
// incumbent only when better by a 1e-9 relative margin.
bool StrictlyBetter(double delta, double best) {
  const double scale = std::max({1.0, std::fabs(delta), std::fabs(best)});
  return delta > best + 1e-9 * scale;
}

constexpr double kImprovementEps = 1e-12;
constexpr size_t kNone = static_cast<size_t>(-1);

// Reference driver: serial best-improvement passes (replace, exchange,
// insert) over naive from-scratch deltas. Per bundle slot, the best
// candidate (lowest index on ties) is applied before the next slot.
LocalSearchResult ReferenceImprove(const HtaProblem& problem,
                                   const Assignment& seed,
                                   size_t max_passes = 8) {
  LocalSearchResult result;
  result.assignment = seed;
  std::vector<TaskBundle>& bundles = result.assignment.bundles;
  std::vector<bool> assigned(problem.task_count(), false);
  for (const TaskBundle& b : bundles) {
    for (TaskIndex t : b) assigned[t] = true;
  }
  std::vector<TaskIndex> unassigned;
  for (size_t t = 0; t < problem.task_count(); ++t) {
    if (!assigned[t]) unassigned.push_back(static_cast<TaskIndex>(t));
  }
  const size_t workers = problem.worker_count();
  for (result.passes = 0; result.passes < max_passes; ++result.passes) {
    bool improved = false;
    // Replace: swap a bundle slot with an unassigned task.
    for (WorkerIndex q = 0; q < workers && !unassigned.empty(); ++q) {
      for (size_t pos = 0; pos < bundles[q].size(); ++pos) {
        double best = kImprovementEps;
        size_t best_u = kNone;
        for (size_t u = 0; u < unassigned.size(); ++u) {
          const double delta =
              NaiveReplaceDelta(problem, bundles[q], pos, unassigned[u], q);
          if (StrictlyBetter(delta, best)) {
            best = delta;
            best_u = u;
          }
        }
        if (best_u == kNone) continue;
        std::swap(bundles[q][pos], unassigned[best_u]);
        ++result.improving_moves;
        improved = true;
      }
    }
    // Exchange: swap slots between two workers' bundles.
    for (WorkerIndex q1 = 0; q1 + 1 < workers; ++q1) {
      for (size_t p1 = 0; p1 < bundles[q1].size(); ++p1) {
        double best = kImprovementEps;
        WorkerIndex best_q2 = 0;
        size_t best_p2 = kNone;
        for (WorkerIndex q2 = q1 + 1; q2 < workers; ++q2) {
          for (size_t p2 = 0; p2 < bundles[q2].size(); ++p2) {
            const double delta =
                NaiveReplaceDelta(problem, bundles[q1], p1, bundles[q2][p2],
                                  q1) +
                NaiveReplaceDelta(problem, bundles[q2], p2, bundles[q1][p1],
                                  q2);
            if (StrictlyBetter(delta, best)) {
              best = delta;
              best_q2 = q2;
              best_p2 = p2;
            }
          }
        }
        if (best_p2 == kNone) continue;
        std::swap(bundles[q1][p1], bundles[best_q2][best_p2]);
        ++result.improving_moves;
        improved = true;
      }
    }
    // Insert: fill spare capacity with the best unassigned task.
    for (WorkerIndex q = 0; q < workers; ++q) {
      while (bundles[q].size() < problem.xmax() && !unassigned.empty()) {
        double best = -1.0;
        size_t best_u = kNone;
        for (size_t u = 0; u < unassigned.size(); ++u) {
          const double delta =
              NaiveInsertDelta(problem, bundles[q], unassigned[u], q);
          if (StrictlyBetter(delta, best)) {
            best = delta;
            best_u = u;
          }
        }
        if (best_u == kNone || best < 0.0) break;
        bundles[q].push_back(unassigned[best_u]);
        unassigned[best_u] = unassigned.back();
        unassigned.pop_back();
        if (best > kImprovementEps) {
          ++result.improving_moves;
          improved = true;
        }
      }
    }
    if (!improved) {
      result.reached_local_optimum = true;
      break;
    }
  }
  result.motivation = TotalMotivation(problem, result.assignment);
  return result;
}

void ExpectIdentical(const LocalSearchResult& a, const LocalSearchResult& b,
                     const char* what) {
  EXPECT_EQ(a.assignment.bundles, b.assignment.bundles) << what;
  EXPECT_EQ(a.motivation, b.motivation) << what;
  EXPECT_EQ(a.improving_moves, b.improving_moves) << what;
  EXPECT_EQ(a.passes, b.passes) << what;
  EXPECT_EQ(a.reached_local_optimum, b.reached_local_optimum) << what;
}

class LocalSearchEquivalenceTest
    : public ::testing::TestWithParam<DistanceKind> {};

TEST_P(LocalSearchEquivalenceTest, IncrementalMatchesNaiveOnGreSeeds) {
  ASSERT_TRUE(kForcePoolSize);
  const DistanceKind kind = GetParam();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    for (const size_t xmax : {size_t{3}, size_t{6}}) {
      const Fixture f = RandomFixture(48, 4, seed);
      auto problem = HtaProblem::Create(&f.tasks, &f.workers, xmax, kind,
                                        /*allow_non_metric=*/true);
      ASSERT_TRUE(problem.ok()) << problem.status();
      auto gre = SolveHtaGre(*problem, seed);
      ASSERT_TRUE(gre.ok());
      const LocalSearchResult incremental =
          Improve(*problem, gre->assignment);
      ExpectIdentical(incremental,
                      ReferenceImprove(*problem, gre->assignment),
                      "GRE seed");
      EXPECT_GE(incremental.motivation + 1e-9,
                incremental.initial_motivation);
      EXPECT_TRUE(ValidateAssignment(*problem, incremental.assignment).ok());
    }
  }
}

TEST_P(LocalSearchEquivalenceTest, IncrementalMatchesNaiveUnderCapacity) {
  // Seeds with spare capacity and many unassigned tasks exercise the
  // insert tables and the size-changing bundle statistics.
  const DistanceKind kind = GetParam();
  for (uint64_t seed = 11; seed <= 13; ++seed) {
    const Fixture f = RandomFixture(40, 3, seed);
    auto problem = HtaProblem::Create(&f.tasks, &f.workers, 5, kind,
                                      /*allow_non_metric=*/true);
    ASSERT_TRUE(problem.ok()) << problem.status();
    // Under-capacity seed: bundle q gets q tasks (worker 0 empty).
    Assignment partial;
    partial.bundles.assign(3, {});
    TaskIndex next = 0;
    for (size_t q = 0; q < 3; ++q) {
      for (size_t i = 0; i < q; ++i) partial.bundles[q].push_back(next++);
    }
    const LocalSearchResult incremental = Improve(*problem, partial);
    ExpectIdentical(incremental, ReferenceImprove(*problem, partial),
                    "under-capacity seed");
    // Inserts never hurt, so all capacity (3 workers x Xmax 5) fills.
    EXPECT_EQ(incremental.assignment.AssignedTaskCount(), 15u);
  }
}

TEST_P(LocalSearchEquivalenceTest, DeterministicScanBitIdenticalAcrossThreads) {
  const DistanceKind kind = GetParam();
  const Fixture f = RandomFixture(60, 4, 21);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 6, kind,
                                    /*allow_non_metric=*/true);
  ASSERT_TRUE(problem.ok()) << problem.status();
  auto gre = SolveHtaGre(*problem, 21);
  ASSERT_TRUE(gre.ok());
  const LocalSearchResult serial =
      Improve(*problem, gre->assignment, /*threads=*/1);
  for (const size_t threads : {size_t{0}, size_t{2}, size_t{4}}) {
    const LocalSearchResult parallel =
        Improve(*problem, gre->assignment, threads);
    ExpectIdentical(serial, parallel, "thread cap");
  }
}

TEST_P(LocalSearchEquivalenceTest, BundleStatsTablesMatchDirectEvaluation) {
  // The cache's tables must equal from-scratch sums after a chain of
  // applied moves.
  const DistanceKind kind = GetParam();
  const Fixture f = RandomFixture(30, 3, 5);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4, kind,
                                    /*allow_non_metric=*/true);
  ASSERT_TRUE(problem.ok()) << problem.status();
  auto gre = SolveHtaGre(*problem, 5);
  ASSERT_TRUE(gre.ok());
  Assignment assignment = gre->assignment;
  BundleStatsCache cache(*problem, &assignment);
  // Apply a few replaces/inserts through the cache, then cross-check.
  std::vector<bool> assigned(problem->task_count(), false);
  for (const TaskBundle& b : assignment.bundles) {
    for (TaskIndex t : b) assigned[t] = true;
  }
  std::vector<TaskIndex> unassigned;
  for (size_t t = 0; t < problem->task_count(); ++t) {
    if (!assigned[t]) unassigned.push_back(static_cast<TaskIndex>(t));
  }
  ASSERT_GE(unassigned.size(), 2u);
  if (!assignment.bundles[0].empty()) {
    const TaskIndex out = assignment.bundles[0][0];
    cache.ApplyReplace(0, 0, unassigned[0]);
    unassigned[0] = out;
  }
  if (assignment.bundles[1].size() < problem->xmax()) {
    cache.ApplyInsert(1, unassigned[1]);
  }
  const TaskDistanceOracle& d = problem->oracle();
  for (WorkerIndex q = 0; q < 3; ++q) {
    const TaskBundle& bundle = assignment.bundles[q];
    EXPECT_NEAR(cache.BundleDiversity(q), SetDiversity(bundle, d), 1e-12);
    double rel_sum = 0.0;
    for (TaskIndex m : bundle) rel_sum += problem->Relevance(m, q);
    EXPECT_NEAR(cache.BundleRelevance(q), rel_sum, 1e-12);
    for (size_t t = 0; t < problem->task_count(); ++t) {
      double div = 0.0;
      for (TaskIndex m : bundle) div += d(static_cast<TaskIndex>(t), m);
      ASSERT_NEAR(cache.DiversityToBundle(q, static_cast<TaskIndex>(t)), div,
                  1e-12)
          << "worker " << q << " task " << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllDistanceKinds, LocalSearchEquivalenceTest,
                         ::testing::Values(DistanceKind::kJaccard,
                                           DistanceKind::kDice,
                                           DistanceKind::kHamming,
                                           DistanceKind::kCosineAngular),
                         [](const auto& info) {
                           std::string name = DistanceKindName(info.param);
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hta
