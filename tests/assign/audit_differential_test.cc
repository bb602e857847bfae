// Randomized differential audit: long sequences of replace / exchange /
// insert moves applied through BundleStatsCache, with every probed
// delta checked against the naive reference deltas and the running
// incremental objective (initial + Σ applied deltas, and the
// cache-derived bundle sums) audited against a from-scratch Eq. 3
// recompute — across all four DistanceKinds. Any stale table entry,
// missed update, or wrong delta derivation surfaces as a divergence
// long before it would corrupt a final assignment.
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assign/auditor.h"
#include "assign/hta_solver.h"
#include "assign/local_search.h"
#include "reference/naive_deltas.h"
#include "util/rng.h"

namespace hta {
namespace {

using reference::NaiveReplaceDelta;
using reference::NaiveInsertDelta;

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

void ExpectDeltaAgrees(double incremental, double naive, const char* what,
                       size_t step) {
  const double tol =
      1e-9 * std::max({1.0, std::fabs(incremental), std::fabs(naive)});
  EXPECT_NEAR(incremental, naive, tol) << what << " delta at step " << step;
}

class AuditDifferentialTest : public ::testing::TestWithParam<DistanceKind> {};

// Applies `steps` random moves (improving or not — worsening moves
// stress the tables just as hard) through the cache, auditing as the
// per-pass wiring would every `audit_every` moves.
void DriveMoveSequence(const HtaProblem& problem, Assignment seed_assignment,
                       uint64_t seed, size_t steps, size_t audit_every) {
  Assignment assignment = seed_assignment;
  BundleStatsCache cache(problem, &assignment);
  const AssignmentAuditor auditor(problem);
  Rng rng(seed);

  std::vector<bool> assigned(problem.task_count(), false);
  for (const TaskBundle& b : assignment.bundles) {
    for (TaskIndex t : b) assigned[t] = true;
  }
  std::vector<TaskIndex> unassigned;
  for (size_t t = 0; t < problem.task_count(); ++t) {
    if (!assigned[t]) unassigned.push_back(static_cast<TaskIndex>(t));
  }

  double running = TotalMotivation(problem, assignment);
  const size_t worker_count = problem.worker_count();

  for (size_t step = 0; step < steps; ++step) {
    const uint64_t kind = rng.NextBounded(3);
    if (kind == 0 && !unassigned.empty()) {
      // Replace: a random slot takes a random unassigned task.
      const WorkerIndex q =
          static_cast<WorkerIndex>(rng.NextBounded(worker_count));
      TaskBundle& bundle = assignment.bundles[q];
      if (bundle.empty()) continue;
      const size_t pos = rng.NextBounded(bundle.size());
      const size_t u = rng.NextBounded(unassigned.size());
      const TaskIndex in = unassigned[u];
      const double delta = cache.ReplaceDelta(q, pos, in);
      ExpectDeltaAgrees(delta,
                        NaiveReplaceDelta(problem, bundle, pos, in, q),
                        "replace", step);
      const TaskIndex out = bundle[pos];
      cache.ApplyReplace(q, pos, in);
      unassigned[u] = out;
      running += delta;
    } else if (kind == 1 && worker_count >= 2) {
      // Exchange: swap random slots of two distinct workers.
      const WorkerIndex q1 =
          static_cast<WorkerIndex>(rng.NextBounded(worker_count));
      WorkerIndex q2 =
          static_cast<WorkerIndex>(rng.NextBounded(worker_count - 1));
      if (q2 >= q1) q2 = static_cast<WorkerIndex>(q2 + 1);
      TaskBundle& b1 = assignment.bundles[q1];
      TaskBundle& b2 = assignment.bundles[q2];
      if (b1.empty() || b2.empty()) continue;
      const size_t p1 = rng.NextBounded(b1.size());
      const size_t p2 = rng.NextBounded(b2.size());
      const double delta = cache.ExchangeDelta(q1, p1, q2, p2);
      const double naive = NaiveReplaceDelta(problem, b1, p1, b2[p2], q1) +
                           NaiveReplaceDelta(problem, b2, p2, b1[p1], q2);
      ExpectDeltaAgrees(delta, naive, "exchange", step);
      const TaskIndex t1 = b1[p1];
      const TaskIndex t2 = b2[p2];
      cache.ApplyReplace(q1, p1, t2);
      cache.ApplyReplace(q2, p2, t1);
      running += delta;
    } else if (!unassigned.empty()) {
      // Insert into a random worker with spare capacity.
      const WorkerIndex q =
          static_cast<WorkerIndex>(rng.NextBounded(worker_count));
      if (assignment.bundles[q].size() >= problem.xmax()) continue;
      const size_t u = rng.NextBounded(unassigned.size());
      const TaskIndex in = unassigned[u];
      const double delta = cache.InsertDelta(q, in);
      ExpectDeltaAgrees(
          delta, NaiveInsertDelta(problem, assignment.bundles[q], in, q),
          "insert", step);
      cache.ApplyInsert(q, in);
      unassigned[u] = unassigned.back();
      unassigned.pop_back();
      running += delta;
    }

    if (step % audit_every == 0 || step + 1 == steps) {
      ASSERT_TRUE(auditor.CheckStructure(assignment).ok()) << "step " << step;
      const Status tracked = auditor.CheckObjective(assignment, running);
      EXPECT_TRUE(tracked.ok()) << tracked << " at step " << step;
      const Status cached =
          auditor.CheckObjective(assignment, cache.CachedTotalMotivation());
      EXPECT_TRUE(cached.ok()) << cached << " at step " << step;
    }
  }
}

TEST_P(AuditDifferentialTest, LongMoveSequencesFromSolverSeeds) {
  const DistanceKind kind = GetParam();
  for (uint64_t seed = 1; seed <= 2; ++seed) {
    const Fixture f = RandomFixture(28, 4, seed);
    auto problem = HtaProblem::Create(&f.tasks, &f.workers, 5, kind,
                                      /*allow_non_metric=*/true);
    ASSERT_TRUE(problem.ok()) << problem.status();
    auto gre = SolveHtaGre(*problem, seed);
    ASSERT_TRUE(gre.ok()) << gre.status();
    DriveMoveSequence(*problem, gre->assignment, seed * 101, /*steps=*/400,
                      /*audit_every=*/25);
  }
}

TEST_P(AuditDifferentialTest, LongMoveSequencesFromUnderCapacitySeeds) {
  // Spare capacity keeps the insert path live for most of the run and
  // exercises size-changing bundle statistics.
  const DistanceKind kind = GetParam();
  const Fixture f = RandomFixture(36, 3, 17);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 6, kind,
                                    /*allow_non_metric=*/true);
  ASSERT_TRUE(problem.ok()) << problem.status();
  Assignment partial;
  partial.bundles.assign(3, {});
  TaskIndex next = 0;
  for (size_t q = 0; q < 3; ++q) {
    for (size_t i = 0; i < q; ++i) partial.bundles[q].push_back(next++);
  }
  DriveMoveSequence(*problem, partial, 23, /*steps=*/500, /*audit_every=*/20);
}

TEST_P(AuditDifferentialTest, LocalSearchEndToEndTracksItsDeltas) {
  // The production pass loop itself: the reported applied_delta must
  // reconcile initial and final motivation within audit tolerance.
  const DistanceKind kind = GetParam();
  const Fixture f = RandomFixture(32, 4, 29);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4, kind,
                                    /*allow_non_metric=*/true);
  ASSERT_TRUE(problem.ok()) << problem.status();
  auto gre = SolveHtaGre(*problem, 29);
  ASSERT_TRUE(gre.ok()) << gre.status();
  auto improved =
      ImproveAssignment(*problem, gre->assignment, LocalSearchOptions{});
  ASSERT_TRUE(improved.ok()) << improved.status();
  const double tracked =
      improved->initial_motivation + improved->applied_delta;
  EXPECT_NEAR(tracked, improved->motivation,
              1e-9 * std::max(1.0, std::fabs(improved->motivation)));
}

INSTANTIATE_TEST_SUITE_P(AllDistanceKinds, AuditDifferentialTest,
                         ::testing::Values(DistanceKind::kJaccard,
                                           DistanceKind::kDice,
                                           DistanceKind::kHamming,
                                           DistanceKind::kCosineAngular),
                         [](const auto& info) {
                           std::string name = DistanceKindName(info.param);
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace hta
