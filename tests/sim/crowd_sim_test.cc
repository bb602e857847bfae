#include "sim/crowd_sim.h"

#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "engine/event_log.h"
#include "sim/concurrent_deployment.h"
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

/// One back-to-back session of `worker` against `service`.
SessionResult RunOneSession(ShardedAssignmentService* service,
                            const Catalog& catalog, BehavioralWorker worker,
                            const SessionConfig& config) {
  std::vector<BehavioralWorker> workers;
  workers.push_back(std::move(worker));
  return RunSequentialDeployment(service, catalog, &workers, config)
      .sessions.front();
}

TEST(CrowdSimTest, SessionCompletesTasksWithinTimeBudget) {
  const Catalog catalog = TestCatalog();
  ShardedAssignmentService service(&catalog.tasks,
                                   TestServiceOptions(StrategyKind::kHtaGre));
  SessionConfig config;
  config.max_minutes = 30.0;
  const SessionResult session =
      RunOneSession(&service, catalog, TestWorker(catalog, 1), config);
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
  const SessionResult session = RunOneSession(
      &service, catalog, TestWorker(catalog, 2), SessionConfig{});
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
  const SessionResult session = RunOneSession(
      &service, catalog, TestWorker(catalog, 3), SessionConfig{});
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
  std::vector<BehavioralWorker> workers;
  for (uint64_t s = 0; s < 5; ++s) {
    workers.push_back(TestWorker(catalog, 10 + s));
  }
  const DeploymentResult result =
      RunSequentialDeployment(&service, catalog, &workers, SessionConfig{});
  std::set<size_t> completed;
  for (const SessionResult& session : result.sessions) {
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
  SessionConfig config;
  config.max_minutes = 2.0;
  const SessionResult session =
      RunOneSession(&service, catalog, TestWorker(catalog, 4), config);
  EXPECT_LE(session.duration_minutes, 2.0 + 1e-9);
  for (const CompletionEvent& e : session.events) {
    EXPECT_LE(e.session_minute, 2.0);
  }
}

TEST(CrowdSimTest, CappedSessionEndsAtTheCapAndTheNextArrivesThen) {
  const Catalog catalog = TestCatalog();
  EventLog log;
  ShardedServiceOptions options = TestServiceOptions(StrategyKind::kHtaGre);
  options.service.event_log = &log;
  ShardedAssignmentService service(&catalog.tasks, options);
  // ~3-minute tasks and no voluntary leaving: the second task would
  // cross the 5-minute cap, so the session idles out its HIT.
  std::vector<BehavioralWorker> workers;
  for (uint64_t s = 0; s < 2; ++s) {
    Rng rng(20 + s);
    BehaviorParams params;
    params.base_task_seconds = 180.0;
    params.time_jitter_sigma = 0.0;
    params.base_leave_hazard = 0.0;
    params.utility_retention = 0.0;
    params.boredom_leave_hazard = 0.0;
    params.choice_fatigue_hazard = 0.0;
    workers.emplace_back(&catalog.tasks, DistanceKind::kJaccard,
                         TestWorker(catalog, 20 + s).profile(), params,
                         rng.Fork(1));
  }
  SessionConfig config;
  config.max_minutes = 5.0;
  const DeploymentResult result =
      RunSequentialDeployment(&service, catalog, &workers, config);

  const SessionResult& first = result.sessions[0];
  ASSERT_FALSE(first.left_voluntarily);
  ASSERT_GT(first.tasks_completed(), 0u);
  EXPECT_EQ(first.duration_minutes, 5.0);
  EXPECT_EQ(first.ended_minute, first.arrival_minute + 5.0);
  EXPECT_LT(first.events.back().wall_minute, first.ended_minute);
  size_t deregistrations = 0;
  for (const LoggedEvent& e : log.events()) {
    if (e.kind != LoggedEvent::Kind::kDeregistered ||
        e.worker_id != first.worker_id) {
      continue;
    }
    EXPECT_EQ(e.minute, first.ended_minute);
    ++deregistrations;
  }
  EXPECT_EQ(deregistrations, 1u);
  EXPECT_EQ(result.sessions[1].arrival_minute, first.ended_minute);
  EXPECT_EQ(result.max_concurrent_sessions, 1u);
}

TEST(CrowdSimTest, DeterministicGivenSeeds) {
  const Catalog catalog = TestCatalog();
  auto run_once = [&]() {
    ShardedAssignmentService service(&catalog.tasks,
                                     TestServiceOptions(StrategyKind::kHtaGre));
    return RunOneSession(&service, catalog, TestWorker(catalog, 5),
                         SessionConfig{});
  };
  const SessionResult a = run_once();
  const SessionResult b = run_once();
  EXPECT_EQ(a.tasks_completed(), b.tasks_completed());
  EXPECT_DOUBLE_EQ(a.duration_minutes, b.duration_minutes);
  EXPECT_EQ(a.questions_correct(), b.questions_correct());
}

}  // namespace
}  // namespace hta
