// Randomized operation-sequence stress test for the assignment
// service: arbitrary interleavings of register / complete / deregister
// across many workers must never violate the platform invariants
// (single ownership of tasks, pool-state consistency, valid weights,
// no crash). A second suite drives churn-heavy scripts — mid-run
// session expiries and late registrations — through a cold and a
// warm-started service side by side (the suite runs under HTA_AUDIT=1,
// so every carried seed and solved assignment is auditor-validated),
// asserting the warm deployment's refreshed bundles dominate the cold
// deployment's on average and never fall far behind at any refresh.
#include <algorithm>
#include <map>
#include <set>

#include <gtest/gtest.h>

#include "core/distance_oracle.h"
#include "core/motivation.h"
#include "engine/assignment_service.h"
#include "sim/catalog.h"
#include "util/rng.h"

namespace hta {
namespace {

struct FuzzCase {
  StrategyKind strategy;
  uint64_t seed;
  size_t ops;
};

class ServiceFuzz : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(ServiceFuzz, InvariantsHoldUnderRandomOperations) {
  const FuzzCase fuzz = GetParam();

  CatalogOptions catalog_options;
  catalog_options.num_groups = 20;
  catalog_options.tasks_per_group = 30;
  catalog_options.vocabulary_size = 200;
  catalog_options.seed = fuzz.seed;
  auto catalog = GenerateCatalog(catalog_options);
  ASSERT_TRUE(catalog.ok());

  AssignmentServiceOptions options;
  options.strategy = fuzz.strategy;
  options.xmax = 5;
  options.extra_random_tasks = 2;
  options.refresh_after_completions = 3;
  options.max_tasks_per_iteration = 80;
  options.min_batch_workers = 2;
  options.seed = fuzz.seed + 1;
  EventLog log;
  options.event_log = &log;
  AssignmentService service(&catalog->tasks, options);

  Rng rng(fuzz.seed + 2);
  std::vector<uint64_t> active;
  std::vector<uint64_t> retired;
  double clock = 0.0;
  size_t completions = 0;

  for (size_t op = 0; op < fuzz.ops; ++op) {
    clock += rng.NextDouble();
    service.AdvanceClock(clock);
    const uint64_t dice = rng.NextBounded(10);
    if (dice < 2 || active.empty()) {
      // Register a new worker.
      KeywordVector interests(catalog->space.size());
      for (int b = 0; b < 5; ++b) {
        interests.Set(
            static_cast<KeywordId>(rng.NextBounded(catalog->space.size())));
      }
      active.push_back(service.RegisterWorker(interests));
    } else if (dice < 9) {
      // Complete a random displayed task of a random active worker.
      const uint64_t id = active[rng.NextBounded(active.size())];
      const auto displayed = service.Displayed(id);
      if (!displayed.empty()) {
        const size_t t = displayed[rng.NextBounded(displayed.size())];
        ASSERT_TRUE(service.NotifyCompleted(id, t).ok());
        ++completions;
      }
    } else {
      // Deregister a random active worker.
      const size_t pos = rng.NextBounded(active.size());
      service.Deregister(active[pos]);
      retired.push_back(active[pos]);
      active[pos] = active.back();
      active.pop_back();
    }

    // Invariant: no task is displayed to two active workers.
    std::set<size_t> seen;
    for (uint64_t id : active) {
      for (size_t t : service.Displayed(id)) {
        ASSERT_TRUE(seen.insert(t).second)
            << "task " << t << " displayed twice at op " << op;
        // Displayed tasks are Assigned in the pool.
        ASSERT_EQ(service.pool().state(t), TaskState::kAssigned);
      }
    }
    // Invariant: weight estimates are valid.
    for (uint64_t id : active) {
      const MotivationWeights w = service.CurrentWeights(id);
      ASSERT_GE(w.alpha, 0.0);
      ASSERT_LE(w.alpha, 1.0);
      ASSERT_NEAR(w.alpha + w.beta, 1.0, 1e-9);
    }
  }

  // Post: pool accounting adds up.
  const TaskPool& pool = service.pool();
  EXPECT_EQ(pool.completed_count(), completions);
  size_t available = 0;
  size_t assigned = 0;
  size_t completed = 0;
  for (size_t t = 0; t < pool.size(); ++t) {
    switch (pool.state(t)) {
      case TaskState::kAvailable:
        ++available;
        break;
      case TaskState::kAssigned:
        ++assigned;
        break;
      case TaskState::kCompleted:
        ++completed;
        break;
    }
  }
  EXPECT_EQ(available + assigned + completed, pool.size());
  EXPECT_EQ(available, pool.available_count());
  EXPECT_EQ(completed, pool.completed_count());

  // Post: operations on retired workers are rejected, not crashing.
  for (uint64_t id : retired) {
    EXPECT_TRUE(service.Displayed(id).empty());
    EXPECT_FALSE(service.NotifyCompleted(id, 0).ok());
  }

  // Post: the audit log is well-formed — time-ordered, one completion
  // event per completion, and at least one display (a drained pool can
  // leave late registrants without a bundle, so displays may be fewer
  // than registrations).
  size_t display_events = 0;
  size_t completion_events = 0;
  double prev_minute = 0.0;
  for (const LoggedEvent& e : log.events()) {
    EXPECT_GE(e.minute, prev_minute);
    prev_minute = e.minute;
    if (e.kind == LoggedEvent::Kind::kDisplayed) {
      ++display_events;
    } else if (e.kind == LoggedEvent::Kind::kCompleted) {
      ++completion_events;
      EXPECT_EQ(e.task_ids.size(), 1u);
    } else {
      // Session boundaries carry no tasks.
      EXPECT_TRUE(e.task_ids.empty());
    }
  }
  EXPECT_GE(display_events, 1u);
  EXPECT_EQ(completion_events, completions);
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ServiceFuzz,
    ::testing::Values(FuzzCase{StrategyKind::kHtaGre, 1, 300},
                      FuzzCase{StrategyKind::kHtaGre, 2, 300},
                      FuzzCase{StrategyKind::kHtaGreDiv, 3, 300},
                      FuzzCase{StrategyKind::kHtaGreRel, 4, 300},
                      FuzzCase{StrategyKind::kRandom, 5, 300},
                      FuzzCase{StrategyKind::kHtaGre, 6, 600}),
    [](const ::testing::TestParamInfo<FuzzCase>& info) {
      std::string name = StrategyName(info.param.strategy) + "_seed" +
                         std::to_string(info.param.seed) + "_ops" +
                         std::to_string(info.param.ops);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------
// Churn-heavy scripted deployments, cold vs warm-started.
//
// The two deployments diverge after the first warm-seeded solve, so
// their estimated (alpha, beta) — and with them the recorded solver
// objectives — are not on a comparable scale. Bundle quality is judged
// off-policy instead: after every aligned refresh both services' newly
// displayed bundles are re-scored under the worker's fixed interests
// with prior weights (extra_random_tasks = 0 keeps the display equal to
// the optimized bundle). Divergence also means the two solves see
// different samples of the pool, so strict per-refresh dominance is not
// a theorem — an unlucky warm sample can trail a lucky cold one by a
// few percent. The contract enforced here: no refresh falls behind by
// more than 10%, and each deployment's quality total strictly dominates
// (ablation_warm_start checks strict per-refresh dominance on its
// larger bench configuration, where it does hold).

struct ChurnCase {
  uint64_t seed;
  size_t refresh;  // Completions per refresh; churn = refresh / xmax.
};

class WarmStartChurn : public ::testing::TestWithParam<ChurnCase> {};

double BundleQuality(const AssignmentService& service, uint64_t id,
                     const KeywordVector& interests,
                     const TaskDistanceOracle& oracle) {
  TaskBundle bundle;
  for (const size_t t : service.Displayed(id)) {
    bundle.push_back(static_cast<TaskIndex>(t));
  }
  return Motivation(bundle, Worker(id, interests), oracle);
}

void CheckDisplayOwnership(const AssignmentService& service,
                           const std::vector<uint64_t>& active) {
  std::set<size_t> seen;
  for (const uint64_t id : active) {
    for (const size_t t : service.Displayed(id)) {
      ASSERT_TRUE(seen.insert(t).second) << "task " << t << " displayed twice";
      ASSERT_EQ(service.pool().state(t), TaskState::kAssigned);
    }
  }
}

TEST_P(WarmStartChurn, WarmBundlesNeverWorseOnAlignedRefreshes) {
  const ChurnCase churn = GetParam();

  CatalogOptions catalog_options;
  catalog_options.num_groups = 20;
  catalog_options.tasks_per_group = 30;
  catalog_options.vocabulary_size = 200;
  catalog_options.seed = churn.seed;
  auto catalog = GenerateCatalog(catalog_options);
  ASSERT_TRUE(catalog.ok());
  const TaskDistanceOracle oracle(&catalog->tasks, DistanceKind::kJaccard);

  Rng rng(churn.seed + 1);
  std::vector<KeywordVector> interests;
  for (size_t w = 0; w < 6; ++w) {
    KeywordVector v(catalog->space.size());
    for (int b = 0; b < 5; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(catalog->space.size())));
    }
    interests.push_back(v);
  }

  AssignmentServiceOptions options;
  options.strategy = StrategyKind::kHtaGre;
  options.xmax = 6;
  options.extra_random_tasks = 0;  // Display == optimized bundle.
  options.refresh_after_completions = churn.refresh;
  options.max_tasks_per_iteration = 60;
  options.min_batch_workers = 1;  // Aligned refresh schedules.
  options.seed = churn.seed + 2;
  AssignmentService cold(&catalog->tasks, options);
  options.warm_start = true;
  AssignmentService warm(&catalog->tasks, options);
  ASSERT_TRUE(warm.options().warm_start);

  // The script drives both services through identical operations:
  // register four workers, run completion rounds, expire two sessions
  // mid-run, and admit a late registrant whose own refreshes then join
  // the comparison.
  std::vector<uint64_t> active;
  size_t registered = 0;
  const auto register_next = [&] {
    const uint64_t cold_id = cold.RegisterWorker(interests[registered]);
    const uint64_t warm_id = warm.RegisterWorker(interests[registered]);
    ASSERT_EQ(cold_id, warm_id);
    active.push_back(cold_id);
    ++registered;
  };
  const auto expire = [&](size_t pos) {
    const uint64_t id = active[pos];
    cold.Deregister(id);
    warm.Deregister(id);
    active.erase(active.begin() + static_cast<ptrdiff_t>(pos));
  };
  double cold_quality_sum = 0.0;
  double warm_quality_sum = 0.0;
  // One worker's round: complete `refresh` displayed tasks (at script
  // -chosen positions, independently per service — contents have
  // diverged), then compare the refreshed bundles' fixed-weight quality.
  const auto run_worker = [&](uint64_t id, size_t round) {
    for (AssignmentService* service : {&cold, &warm}) {
      for (size_t c = 0; c < churn.refresh; ++c) {
        const auto displayed = service->Displayed(id);
        ASSERT_FALSE(displayed.empty());
        const size_t pos = (round * 7 + c * 3 + id) % displayed.size();
        ASSERT_TRUE(service->NotifyCompleted(id, displayed[pos]).ok());
      }
    }
    const double cold_quality =
        BundleQuality(cold, id, interests[id], oracle);
    const double warm_quality =
        BundleQuality(warm, id, interests[id], oracle);
    EXPECT_GE(warm_quality, 0.9 * cold_quality)
        << "worker " << id << " round " << round;
    cold_quality_sum += cold_quality;
    warm_quality_sum += warm_quality;
  };

  for (size_t w = 0; w < 4; ++w) register_next();
  for (size_t round = 0; round < 4; ++round) {
    for (const uint64_t id : std::vector<uint64_t>(active)) {
      run_worker(id, round);
    }
    CheckDisplayOwnership(cold, active);
    CheckDisplayOwnership(warm, active);
    if (round == 0) expire(1);       // Session expiry mid-run.
    if (round == 1) register_next(); // Late arrival: cold-start bundle,
                                     // compared from its next refresh.
    if (round == 2) expire(0);
  }

  // The warm deployment's bundles dominate in aggregate.
  EXPECT_GT(warm_quality_sum, cold_quality_sum);

  // Aligned solve schedules, and the warm service actually warm-started
  // (carrying survivors) rather than silently falling back cold.
  ASSERT_EQ(cold.iteration_count(), warm.iteration_count());
  size_t seeded = 0;
  size_t carried = 0;
  for (const IterationRecord& record : cold.iterations()) {
    EXPECT_FALSE(record.warm_seeded);
    EXPECT_EQ(record.carried_tasks, 0u);
  }
  for (const IterationRecord& record : warm.iterations()) {
    if (record.warm_seeded) ++seeded;
    carried += record.carried_tasks;
  }
  EXPECT_GT(seeded, 0u);
  EXPECT_GT(carried, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    ChurnScripts, WarmStartChurn,
    ::testing::Values(ChurnCase{101, 1}, ChurnCase{102, 1},
                      ChurnCase{103, 3}, ChurnCase{104, 3},
                      ChurnCase{105, 5}),
    [](const ::testing::TestParamInfo<ChurnCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_refresh" +
             std::to_string(info.param.refresh);
    });

}  // namespace
}  // namespace hta
