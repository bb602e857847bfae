#include "sim/crowd_sim.h"

#include <set>

#include <gtest/gtest.h>

#include "sim/worker_gen.h"

namespace hta {
namespace {

Catalog TestCatalog() {
  CatalogOptions options;
  options.num_groups = 15;
  options.tasks_per_group = 30;
  options.vocabulary_size = 150;
  auto c = GenerateCatalog(options);
  HTA_CHECK(c.ok());
  return std::move(*c);
}

ShardedServiceOptions TestServiceOptions(StrategyKind strategy) {
  ShardedServiceOptions o;
  o.service.strategy = strategy;
  o.service.xmax = 6;
  o.service.extra_random_tasks = 2;
  o.service.refresh_after_completions = 3;
  o.service.max_tasks_per_iteration = 80;
  return o;
}

BehavioralWorker TestWorker(const Catalog& catalog, uint64_t seed) {
  Rng rng(seed);
  BehaviorParams params = SampleBehaviorParams(&rng);
  KeywordVector interests(catalog.space.size());
  for (int b = 0; b < 5; ++b) {
    interests.Set(
        static_cast<KeywordId>(rng.NextBounded(catalog.space.size())));
  }
  return BehavioralWorker(&catalog.tasks, DistanceKind::kJaccard,
                          Worker(seed, std::move(interests)), params,
                          rng.Fork(1));
}

TEST(CrowdSimTest, SessionCompletesTasksWithinTimeBudget) {
  const Catalog catalog = TestCatalog();
  ShardedAssignmentService service(&catalog.tasks,
                                   TestServiceOptions(StrategyKind::kHtaGre));
  BehavioralWorker worker = TestWorker(catalog, 1);
  SessionConfig config;
  config.max_minutes = 30.0;
  const SessionResult session = RunSession(&service, catalog, &worker, config);
  EXPECT_GT(session.tasks_completed(), 0u);
  EXPECT_LE(session.duration_minutes, 30.0 + 1e-9);
  // Events are time-ordered and within the session window.
  double prev = 0.0;
  for (const CompletionEvent& e : session.events) {
    EXPECT_GE(e.session_minute, prev);
    EXPECT_LE(e.session_minute, 30.0);
    prev = e.session_minute;
    EXPECT_GE(e.questions, 1);
    EXPECT_LE(e.correct, e.questions);
    EXPECT_GE(e.correct, 0);
  }
}

TEST(CrowdSimTest, QuestionAccountingConsistent) {
  const Catalog catalog = TestCatalog();
  ShardedAssignmentService service(
      &catalog.tasks, TestServiceOptions(StrategyKind::kHtaGreDiv));
  BehavioralWorker worker = TestWorker(catalog, 2);
  const SessionResult session =
      RunSession(&service, catalog, &worker, SessionConfig{});
  EXPECT_GE(session.questions_total(), session.tasks_completed());
  EXPECT_LE(session.questions_correct(), session.questions_total());
  // Every completed task's questions match the catalog.
  for (const CompletionEvent& e : session.events) {
    EXPECT_EQ(e.questions,
              static_cast<int>(catalog.questions_per_task[e.catalog_task]));
  }
}

TEST(CrowdSimTest, CompletedTasksAreCompletedInPool) {
  const Catalog catalog = TestCatalog();
  ShardedAssignmentService service(
      &catalog.tasks, TestServiceOptions(StrategyKind::kHtaGreRel));
  BehavioralWorker worker = TestWorker(catalog, 3);
  const SessionResult session =
      RunSession(&service, catalog, &worker, SessionConfig{});
  for (const CompletionEvent& e : session.events) {
    EXPECT_EQ(service.shard(0).pool().state(e.catalog_task),
              TaskState::kCompleted);
  }
  EXPECT_EQ(service.shard(0).pool().completed_count(),
            session.tasks_completed());
}

TEST(CrowdSimTest, NoTaskCompletedTwiceAcrossSessions) {
  const Catalog catalog = TestCatalog();
  ShardedAssignmentService service(&catalog.tasks,
                                   TestServiceOptions(StrategyKind::kHtaGre));
  std::set<size_t> completed;
  for (uint64_t s = 0; s < 5; ++s) {
    BehavioralWorker worker = TestWorker(catalog, 10 + s);
    const SessionResult session =
        RunSession(&service, catalog, &worker, SessionConfig{});
    for (const CompletionEvent& e : session.events) {
      EXPECT_TRUE(completed.insert(e.catalog_task).second)
          << "task " << e.catalog_task << " completed twice";
    }
  }
}

TEST(CrowdSimTest, ShortSessionCapRespected) {
  const Catalog catalog = TestCatalog();
  ShardedAssignmentService service(&catalog.tasks,
                                   TestServiceOptions(StrategyKind::kHtaGre));
  BehavioralWorker worker = TestWorker(catalog, 4);
  SessionConfig config;
  config.max_minutes = 2.0;
  const SessionResult session = RunSession(&service, catalog, &worker, config);
  EXPECT_LE(session.duration_minutes, 2.0 + 1e-9);
  for (const CompletionEvent& e : session.events) {
    EXPECT_LE(e.session_minute, 2.0);
  }
}

TEST(CrowdSimTest, DeterministicGivenSeeds) {
  const Catalog catalog = TestCatalog();
  auto run_once = [&]() {
    ShardedAssignmentService service(&catalog.tasks,
                                     TestServiceOptions(StrategyKind::kHtaGre));
    BehavioralWorker worker = TestWorker(catalog, 5);
    return RunSession(&service, catalog, &worker, SessionConfig{});
  };
  const SessionResult a = run_once();
  const SessionResult b = run_once();
  EXPECT_EQ(a.tasks_completed(), b.tasks_completed());
  EXPECT_DOUBLE_EQ(a.duration_minutes, b.duration_minutes);
  EXPECT_EQ(a.questions_correct(), b.questions_correct());
}

}  // namespace
}  // namespace hta
