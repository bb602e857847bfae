#include "engine/assignment_service.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "sim/catalog.h"

namespace hta {
namespace {

Catalog SmallCatalog(uint64_t seed = 3) {
  CatalogOptions options;
  options.num_groups = 12;
  options.tasks_per_group = 20;
  options.vocabulary_size = 120;
  options.seed = seed;
  auto c = GenerateCatalog(options);
  HTA_CHECK(c.ok());
  return std::move(*c);
}

AssignmentServiceOptions SmallServiceOptions(StrategyKind strategy) {
  AssignmentServiceOptions o;
  o.strategy = strategy;
  o.xmax = 5;
  o.extra_random_tasks = 2;
  o.refresh_after_completions = 3;
  o.max_tasks_per_iteration = 60;
  return o;
}

KeywordVector SomeInterests(const Catalog& catalog) {
  return catalog.tasks[0].keywords();
}

TEST(AssignmentServiceTest, RegisterDisplaysTasks) {
  const Catalog catalog = SmallCatalog();
  AssignmentService service(&catalog.tasks,
                            SmallServiceOptions(StrategyKind::kHtaGreDiv));
  const uint64_t id = service.RegisterWorker(SomeInterests(catalog));
  const auto displayed = service.Displayed(id);
  EXPECT_EQ(displayed.size(), 7u);  // xmax + extras.
  // All displayed tasks are marked assigned in the pool.
  for (size_t t : displayed) {
    EXPECT_EQ(service.pool().state(t), TaskState::kAssigned);
  }
  EXPECT_EQ(service.iteration_count(), 1u);
}

TEST(AssignmentServiceTest, AdaptiveColdStartIsRandomBundle) {
  const Catalog catalog = SmallCatalog();
  AssignmentService service(&catalog.tasks,
                            SmallServiceOptions(StrategyKind::kHtaGre));
  const uint64_t id = service.RegisterWorker(SomeInterests(catalog));
  // Cold start still displays xmax + extras tasks, but the iteration
  // record shows no solver invocation (task_count == 0).
  EXPECT_EQ(service.Displayed(id).size(), 7u);
  ASSERT_EQ(service.iterations().size(), 1u);
  EXPECT_EQ(service.iterations()[0].task_count, 0u);
}

TEST(AssignmentServiceTest, CompletionRemovesFromDisplay) {
  const Catalog catalog = SmallCatalog();
  AssignmentService service(&catalog.tasks,
                            SmallServiceOptions(StrategyKind::kHtaGreRel));
  const uint64_t id = service.RegisterWorker(SomeInterests(catalog));
  auto displayed = service.Displayed(id);
  const size_t task = displayed[0];
  ASSERT_TRUE(service.NotifyCompleted(id, task).ok());
  displayed = service.Displayed(id);
  EXPECT_EQ(std::count(displayed.begin(), displayed.end(), task), 0);
  EXPECT_EQ(service.pool().state(task), TaskState::kCompleted);
}

TEST(AssignmentServiceTest, CompletingUndisplayedTaskFails) {
  const Catalog catalog = SmallCatalog();
  AssignmentService service(&catalog.tasks,
                            SmallServiceOptions(StrategyKind::kHtaGreRel));
  const uint64_t id = service.RegisterWorker(SomeInterests(catalog));
  // Find a task not displayed to the worker.
  const auto displayed = service.Displayed(id);
  size_t hidden = 0;
  while (std::count(displayed.begin(), displayed.end(), hidden) > 0) ++hidden;
  EXPECT_EQ(service.NotifyCompleted(id, hidden).code(),
            StatusCode::kFailedPrecondition);
}

TEST(AssignmentServiceTest, UnknownWorkerFails) {
  const Catalog catalog = SmallCatalog();
  AssignmentService service(&catalog.tasks,
                            SmallServiceOptions(StrategyKind::kHtaGreRel));
  EXPECT_EQ(service.NotifyCompleted(404, 0).code(), StatusCode::kNotFound);
}

TEST(AssignmentServiceTest, RefreshTriggersAfterConfiguredCompletions) {
  const Catalog catalog = SmallCatalog();
  AssignmentService service(&catalog.tasks,
                            SmallServiceOptions(StrategyKind::kHtaGreRel));
  const uint64_t id = service.RegisterWorker(SomeInterests(catalog));
  EXPECT_EQ(service.iteration_count(), 1u);
  // Complete 3 tasks (refresh_after_completions) → new iteration.
  for (int k = 0; k < 3; ++k) {
    const auto displayed = service.Displayed(id);
    ASSERT_FALSE(displayed.empty());
    ASSERT_TRUE(service.NotifyCompleted(id, displayed[0]).ok());
  }
  EXPECT_EQ(service.iteration_count(), 2u);
  // The refreshed display is full again.
  EXPECT_EQ(service.Displayed(id).size(), 7u);
}

TEST(AssignmentServiceTest, TasksNeverDisplayedTwice) {
  const Catalog catalog = SmallCatalog();
  AssignmentService service(&catalog.tasks,
                            SmallServiceOptions(StrategyKind::kHtaGre));
  const uint64_t a = service.RegisterWorker(SomeInterests(catalog));
  const uint64_t b = service.RegisterWorker(catalog.tasks[30].keywords());
  std::set<size_t> seen;
  for (size_t t : service.Displayed(a)) {
    EXPECT_TRUE(seen.insert(t).second);
  }
  for (size_t t : service.Displayed(b)) {
    EXPECT_TRUE(seen.insert(t).second) << "task displayed to both workers";
  }
}

TEST(AssignmentServiceTest, AdaptiveWeightsMoveAfterCompletions) {
  const Catalog catalog = SmallCatalog();
  auto options = SmallServiceOptions(StrategyKind::kHtaGre);
  AssignmentService service(&catalog.tasks, options);
  const uint64_t id = service.RegisterWorker(SomeInterests(catalog));
  const MotivationWeights before = service.CurrentWeights(id);
  EXPECT_DOUBLE_EQ(before.alpha, options.prior.alpha);
  for (int k = 0; k < 4; ++k) {
    const auto displayed = service.Displayed(id);
    ASSERT_FALSE(displayed.empty());
    ASSERT_TRUE(service.NotifyCompleted(id, displayed[0]).ok());
  }
  const MotivationWeights after = service.CurrentWeights(id);
  EXPECT_NEAR(after.alpha + after.beta, 1.0, 1e-12);
  // With real observations the estimate is data-driven; it should very
  // rarely equal the prior exactly.
  EXPECT_NE(after.alpha, before.alpha);
}

TEST(AssignmentServiceTest, DeregisterWithoutRecycleKeepsTasksDropped) {
  const Catalog catalog = SmallCatalog();
  AssignmentService service(&catalog.tasks,
                            SmallServiceOptions(StrategyKind::kHtaGreDiv));
  const uint64_t id = service.RegisterWorker(SomeInterests(catalog));
  const auto displayed = service.Displayed(id);
  service.Deregister(id);
  for (size_t t : displayed) {
    EXPECT_EQ(service.pool().state(t), TaskState::kAssigned);
  }
  EXPECT_TRUE(service.Displayed(id).empty());
}

TEST(AssignmentServiceTest, DeregisterWithRecycleReturnsTasks) {
  const Catalog catalog = SmallCatalog();
  auto options = SmallServiceOptions(StrategyKind::kHtaGreDiv);
  options.recycle_on_leave = true;
  AssignmentService service(&catalog.tasks, options);
  const uint64_t id = service.RegisterWorker(SomeInterests(catalog));
  const auto displayed = service.Displayed(id);
  service.Deregister(id);
  for (size_t t : displayed) {
    EXPECT_EQ(service.pool().state(t), TaskState::kAvailable);
  }
}

TEST(AssignmentServiceTest, CompletionsAfterDeregisterRejected) {
  const Catalog catalog = SmallCatalog();
  AssignmentService service(&catalog.tasks,
                            SmallServiceOptions(StrategyKind::kHtaGreDiv));
  const uint64_t id = service.RegisterWorker(SomeInterests(catalog));
  const auto displayed = service.Displayed(id);
  service.Deregister(id);
  EXPECT_FALSE(service.NotifyCompleted(id, displayed[0]).ok());
}

TEST(AssignmentServiceTest, RandomStrategyServesTasks) {
  const Catalog catalog = SmallCatalog();
  AssignmentService service(&catalog.tasks,
                            SmallServiceOptions(StrategyKind::kRandom));
  const uint64_t id = service.RegisterWorker(SomeInterests(catalog));
  EXPECT_EQ(service.Displayed(id).size(), 7u);
}

TEST(AssignmentServiceTest, ManyWorkersSharedIteration) {
  const Catalog catalog = SmallCatalog();
  auto options = SmallServiceOptions(StrategyKind::kHtaGreRel);
  AssignmentService service(&catalog.tasks, options);
  std::vector<uint64_t> ids;
  for (int q = 0; q < 4; ++q) {
    ids.push_back(service.RegisterWorker(catalog.tasks[q * 25].keywords()));
  }
  // Drive all workers to the refresh threshold; iterations pool workers.
  for (int round = 0; round < 3; ++round) {
    for (uint64_t id : ids) {
      const auto displayed = service.Displayed(id);
      ASSERT_FALSE(displayed.empty());
      ASSERT_TRUE(service.NotifyCompleted(id, displayed[0]).ok());
    }
  }
  // Every worker still has a non-empty display and no double booking.
  std::set<size_t> seen;
  for (uint64_t id : ids) {
    for (size_t t : service.Displayed(id)) {
      EXPECT_TRUE(seen.insert(t).second);
    }
  }
}

// Interests from another keyword universe abort at registration, in
// every build type, before any relevance kernel reads them.
TEST(AssignmentServiceDeathTest, WrongUniverseInterestsAbortAtRegistration) {
  const Catalog catalog = SmallCatalog();
  AssignmentService service(&catalog.tasks,
                            SmallServiceOptions(StrategyKind::kHtaGre));
  const size_t universe = catalog.tasks[0].keywords().universe_size();
  EXPECT_DEATH(service.RegisterWorker(KeywordVector(universe + 64, {1, 2})),
               "keyword universe");
}

}  // namespace
}  // namespace hta
