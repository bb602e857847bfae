// Cache-budget engine equivalence: two AssignmentServices over the same
// catalog — one with warm caches (the default session-row budget, so
// every session's relevance row is live), one with cold caches (a zero
// row budget, so every relevance query is recomputed from the packed
// rows) — are driven through an identical scripted deployment and must
// stay EXPECT_EQ-identical at every observable step: displayed bundles
// after every registration and completion, weight estimates, pool
// state, and the full iteration-record stream (bit-identical
// objectives). The script is exercised across every DistanceKind
// (including the non-metric Dice) and several solver thread caps.
// (Subset-view solves against solves over task copies are pinned by
// CatalogSubsetViewTest.CreateFromSubsetSolvesBitIdenticallyToCreate.)
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine/assignment_service.h"
#include "util/rng.h"

namespace hta {
namespace {

AssignmentServiceOptions ColdCaches(AssignmentServiceOptions options) {
  options.session_relevance_bytes = 0;
  return options;
}

std::vector<Task> RandomCatalog(size_t n, size_t universe, uint64_t seed) {
  Rng rng(seed);
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    KeywordVector v(universe);
    const size_t bits = 1 + rng.NextBounded(5);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(universe)));
    }
    tasks.emplace_back(i, v);
  }
  return tasks;
}

std::vector<KeywordVector> RandomInterests(size_t count, size_t universe,
                                           uint64_t seed) {
  Rng rng(seed);
  std::vector<KeywordVector> out;
  for (size_t w = 0; w < count; ++w) {
    KeywordVector v(universe);
    for (size_t b = 0; b < 4; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(universe)));
    }
    out.push_back(v);
  }
  return out;
}

class WarmColdEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<DistanceKind, size_t>> {};

TEST_P(WarmColdEquivalenceTest, ScriptedDeploymentIsBitIdentical) {
  const DistanceKind kind = std::get<0>(GetParam());
  const size_t solver_threads = std::get<1>(GetParam());
  constexpr size_t kUniverse = 70;
  const auto catalog = RandomCatalog(260, kUniverse, 21);
  const auto interests = RandomInterests(4, kUniverse, 22);

  AssignmentServiceOptions options;
  options.strategy = StrategyKind::kHtaGre;
  options.metric = kind;
  options.xmax = 5;
  options.extra_random_tasks = 2;
  options.refresh_after_completions = 3;
  options.min_batch_workers = 2;
  options.max_tasks_per_iteration = 40;  // << catalog: sampling path.
  options.solver_threads = solver_threads;
  options.seed = 77;

  AssignmentService warm(&catalog, options);
  AssignmentService cold(&catalog, ColdCaches(options));
  ASSERT_NE(warm.session_relevance(), nullptr);
  ASSERT_EQ(cold.session_relevance(), nullptr);

  std::vector<uint64_t> ids;
  const auto expect_same_state = [&] {
    for (uint64_t id : ids) {
      ASSERT_EQ(warm.Displayed(id), cold.Displayed(id)) << "worker " << id;
      const MotivationWeights ww = warm.CurrentWeights(id);
      const MotivationWeights cw = cold.CurrentWeights(id);
      EXPECT_EQ(ww.alpha, cw.alpha);
      EXPECT_EQ(ww.beta, cw.beta);
    }
    EXPECT_EQ(warm.pool().available_count(), cold.pool().available_count());
    EXPECT_EQ(warm.pool().completed_count(), cold.pool().completed_count());
  };

  for (const KeywordVector& v : interests) {
    const uint64_t warm_id = warm.RegisterWorker(v);
    const uint64_t cold_id = cold.RegisterWorker(v);
    ASSERT_EQ(warm_id, cold_id);
    ids.push_back(warm_id);
    expect_same_state();
  }

  for (size_t round = 0; round < 4; ++round) {
    for (uint64_t id : ids) {
      for (size_t c = 0; c < 2; ++c) {
        const std::vector<size_t> displayed = warm.Displayed(id);
        if (displayed.empty()) break;
        ASSERT_TRUE(warm.NotifyCompleted(id, displayed.front()).ok());
        ASSERT_TRUE(cold.NotifyCompleted(id, displayed.front()).ok());
        expect_same_state();
      }
    }
    if (round == 1) {
      // A mid-deployment departure must not disturb equivalence.
      warm.Deregister(ids.back());
      cold.Deregister(ids.back());
      ids.pop_back();
      expect_same_state();
    }
  }

  // The full iteration stream matches record for record; timings are
  // the only fields allowed to differ.
  ASSERT_EQ(warm.iteration_count(), cold.iteration_count());
  for (size_t i = 0; i < warm.iteration_count(); ++i) {
    const IterationRecord& w = warm.iterations()[i];
    const IterationRecord& c = cold.iterations()[i];
    EXPECT_EQ(w.iteration, c.iteration);
    EXPECT_EQ(w.worker_count, c.worker_count);
    EXPECT_EQ(w.task_count, c.task_count);
    EXPECT_EQ(w.motivation, c.motivation) << "iteration " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKindsAndThreadCaps, WarmColdEquivalenceTest,
    ::testing::Combine(::testing::Values(DistanceKind::kJaccard,
                                         DistanceKind::kDice,
                                         DistanceKind::kHamming,
                                         DistanceKind::kCosineAngular),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{2},
                                         size_t{4})),
    [](const ::testing::TestParamInfo<std::tuple<DistanceKind, size_t>>&
           info) {
      std::string name = DistanceKindName(std::get<0>(info.param)) +
                         "_threads" + std::to_string(std::get<1>(info.param));
      for (char& c : name) {
        if (c == '-') c = '_';  // "cosine-angular" -> valid gtest name.
      }
      return name;
    });

// A partial session-row budget that fits exactly two rows — so the
// first two workers' relevance is gathered (by solver tables and
// estimator scans alike) while the third's falls back to the
// per-iteration sweep — still matches the all-cold service. Distances
// come from the packed rows on both.
TEST(WarmColdEquivalenceTest, ZeroDistanceBudgetStaysEquivalent) {
  constexpr size_t kUniverse = 40;
  const auto catalog = RandomCatalog(120, kUniverse, 31);
  const auto interests = RandomInterests(3, kUniverse, 32);

  AssignmentServiceOptions options;
  options.xmax = 4;
  options.extra_random_tasks = 1;
  options.refresh_after_completions = 2;
  options.max_tasks_per_iteration = 30;
  options.seed = 7;
  options.session_relevance_bytes = 2 * catalog.size() * sizeof(double);

  AssignmentService warm(&catalog, options);
  AssignmentService cold(&catalog, ColdCaches(options));
  ASSERT_NE(warm.session_relevance(), nullptr);

  std::vector<uint64_t> ids;
  for (const KeywordVector& v : interests) {
    ids.push_back(warm.RegisterWorker(v));
    ASSERT_EQ(cold.RegisterWorker(v), ids.back());
  }
  EXPECT_EQ(warm.session_relevance()->session_count(), 2u);
  for (size_t step = 0; step < 30; ++step) {
    const uint64_t id = ids[step % ids.size()];
    const std::vector<size_t> displayed = warm.Displayed(id);
    if (displayed.empty()) continue;
    ASSERT_TRUE(warm.NotifyCompleted(id, displayed.front()).ok());
    ASSERT_TRUE(cold.NotifyCompleted(id, displayed.front()).ok());
    for (uint64_t w : ids) {
      ASSERT_EQ(warm.Displayed(w), cold.Displayed(w));
      EXPECT_EQ(warm.CurrentWeights(w).alpha, cold.CurrentWeights(w).alpha);
      EXPECT_EQ(warm.CurrentWeights(w).beta, cold.CurrentWeights(w).beta);
    }
  }
  ASSERT_EQ(warm.iteration_count(), cold.iteration_count());
  for (size_t i = 0; i < warm.iteration_count(); ++i) {
    EXPECT_EQ(warm.iterations()[i].motivation, cold.iterations()[i].motivation);
  }
}

}  // namespace
}  // namespace hta
