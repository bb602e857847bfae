// Thread-cap engine equivalence: two AssignmentServices over the same
// catalog — one solving at the parameterized solver thread cap, one
// serial — are driven through an identical scripted deployment and
// must stay EXPECT_EQ-identical at every observable step: displayed
// bundles after every registration and completion, weight estimates,
// pool state, and the full iteration-record stream (bit-identical
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

// Named for the warm/cold session-row comparison this suite used to run.
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

  AssignmentService capped(&catalog, options);
  options.solver_threads = 1;
  AssignmentService serial(&catalog, options);

  std::vector<uint64_t> ids;
  const auto expect_same_state = [&] {
    for (uint64_t id : ids) {
      ASSERT_EQ(capped.Displayed(id), serial.Displayed(id))
          << "worker " << id;
      const MotivationWeights cap_w = capped.CurrentWeights(id);
      const MotivationWeights ser_w = serial.CurrentWeights(id);
      EXPECT_EQ(cap_w.alpha, ser_w.alpha);
      EXPECT_EQ(cap_w.beta, ser_w.beta);
    }
    EXPECT_EQ(capped.pool().available_count(),
              serial.pool().available_count());
    EXPECT_EQ(capped.pool().completed_count(),
              serial.pool().completed_count());
  };

  for (const KeywordVector& v : interests) {
    const uint64_t capped_id = capped.RegisterWorker(v);
    const uint64_t serial_id = serial.RegisterWorker(v);
    ASSERT_EQ(capped_id, serial_id);
    ids.push_back(capped_id);
    expect_same_state();
  }

  for (size_t round = 0; round < 4; ++round) {
    for (uint64_t id : ids) {
      for (size_t c = 0; c < 2; ++c) {
        const std::vector<size_t> displayed = capped.Displayed(id);
        if (displayed.empty()) break;
        ASSERT_TRUE(capped.NotifyCompleted(id, displayed.front()).ok());
        ASSERT_TRUE(serial.NotifyCompleted(id, displayed.front()).ok());
        expect_same_state();
      }
    }
    if (round == 1) {
      // A mid-deployment departure must not disturb equivalence.
      capped.Deregister(ids.back());
      serial.Deregister(ids.back());
      ids.pop_back();
      expect_same_state();
    }
  }

  // The full iteration stream matches record for record; timings are
  // the only fields allowed to differ.
  ASSERT_EQ(capped.iteration_count(), serial.iteration_count());
  for (size_t i = 0; i < capped.iteration_count(); ++i) {
    const IterationRecord& a = capped.iterations()[i];
    const IterationRecord& b = serial.iterations()[i];
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_EQ(a.worker_count, b.worker_count);
    EXPECT_EQ(a.task_count, b.task_count);
    EXPECT_EQ(a.motivation, b.motivation) << "iteration " << i;
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

}  // namespace
}  // namespace hta
