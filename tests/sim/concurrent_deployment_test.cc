#include "sim/concurrent_deployment.h"

#include <set>

#include <gtest/gtest.h>

#include "sim/online_experiment.h"
#include "sim/worker_gen.h"

namespace hta {
namespace {

Catalog TestCatalog() {
  CatalogOptions options;
  options.num_groups = 15;
  options.tasks_per_group = 40;
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
  o.service.max_tasks_per_iteration = 100;
  return o;
}

std::vector<BehavioralWorker> TestWorkers(const Catalog& catalog,
                                          size_t count) {
  std::vector<BehavioralWorker> workers;
  for (size_t s = 0; s < count; ++s) {
    Rng rng(1000 + s);
    BehaviorParams params = SampleBehaviorParams(&rng);
    KeywordVector interests(catalog.space.size());
    for (int b = 0; b < 5; ++b) {
      interests.Set(
          static_cast<KeywordId>(rng.NextBounded(catalog.space.size())));
    }
    workers.emplace_back(&catalog.tasks, DistanceKind::kJaccard,
                         Worker(s, std::move(interests)), params,
                         rng.Fork(1));
  }
  return workers;
}

TEST(ConcurrentDeploymentTest, AllSessionsComplete) {
  const Catalog catalog = TestCatalog();
  ShardedAssignmentService service(&catalog.tasks,
                                   TestServiceOptions(StrategyKind::kHtaGre));
  auto workers = TestWorkers(catalog, 6);
  ConcurrentDeploymentOptions options;
  options.session.max_minutes = 10.0;
  const DeploymentResult result =
      RunConcurrentDeployment(&service, catalog, &workers, options);
  ASSERT_EQ(result.sessions.size(), 6u);
  for (const SessionResult& s : result.sessions) {
    EXPECT_GT(s.worker_id, 0u);
    EXPECT_LE(s.duration_minutes, 10.0 + 1e-9);
    EXPECT_GE(s.duration_minutes, 0.0);
  }
  EXPECT_GT(result.deployment_minutes, 0.0);
  EXPECT_GE(result.max_concurrent_sessions, size_t{1});
}

TEST(ConcurrentDeploymentTest, SessionsActuallyOverlap) {
  // With a fast arrival rate and long sessions, concurrency > 1 and at
  // least one solver iteration pools multiple workers.
  const Catalog catalog = TestCatalog();
  ShardedServiceOptions service_options =
      TestServiceOptions(StrategyKind::kHtaGreRel);
  service_options.service.min_batch_workers = 3;
  ShardedAssignmentService service(&catalog.tasks, service_options);
  auto workers = TestWorkers(catalog, 8);
  ConcurrentDeploymentOptions options;
  options.arrival_rate_per_min = 4.0;
  options.session.max_minutes = 10.0;
  const DeploymentResult result =
      RunConcurrentDeployment(&service, catalog, &workers, options);
  EXPECT_GT(result.max_concurrent_sessions, size_t{1});
  EXPECT_GT(result.mean_workers_per_iteration, 1.0)
      << "concurrent deployments should pool workers into iterations";
}

TEST(ConcurrentDeploymentTest, EventTimesAreSessionRelativeAndOrdered) {
  const Catalog catalog = TestCatalog();
  ShardedAssignmentService service(
      &catalog.tasks, TestServiceOptions(StrategyKind::kHtaGreDiv));
  auto workers = TestWorkers(catalog, 5);
  ConcurrentDeploymentOptions options;
  options.session.max_minutes = 8.0;
  const DeploymentResult result =
      RunConcurrentDeployment(&service, catalog, &workers, options);
  for (const SessionResult& s : result.sessions) {
    double prev = 0.0;
    for (const CompletionEvent& e : s.events) {
      EXPECT_GE(e.session_minute, prev);
      EXPECT_LE(e.session_minute, 8.0 + 1e-9);
      prev = e.session_minute;
      // The wall-clock stamp is the session-relative one shifted by the
      // arrival time, so it can never precede it.
      EXPECT_GE(e.wall_minute, e.session_minute - 1e-9);
    }
  }
}

TEST(ConcurrentDeploymentTest, NoTaskCompletedTwice) {
  const Catalog catalog = TestCatalog();
  ShardedAssignmentService service(&catalog.tasks,
                                   TestServiceOptions(StrategyKind::kHtaGre));
  auto workers = TestWorkers(catalog, 8);
  ConcurrentDeploymentOptions options;
  options.arrival_rate_per_min = 3.0;
  options.session.max_minutes = 8.0;
  const DeploymentResult result =
      RunConcurrentDeployment(&service, catalog, &workers, options);
  std::set<size_t> completed;
  for (const SessionResult& s : result.sessions) {
    for (const CompletionEvent& e : s.events) {
      EXPECT_TRUE(completed.insert(e.catalog_task).second);
      EXPECT_EQ(service.shard(0).pool().state(e.catalog_task),
                TaskState::kCompleted);
    }
  }
}

TEST(ConcurrentDeploymentTest, DeterministicForSeeds) {
  const Catalog catalog = TestCatalog();
  auto run_once = [&]() {
    ShardedAssignmentService service(&catalog.tasks,
                                     TestServiceOptions(StrategyKind::kHtaGre));
    auto workers = TestWorkers(catalog, 5);
    ConcurrentDeploymentOptions options;
    options.session.max_minutes = 6.0;
    return RunConcurrentDeployment(&service, catalog, &workers, options);
  };
  const DeploymentResult a = run_once();
  const DeploymentResult b = run_once();
  ASSERT_EQ(a.sessions.size(), b.sessions.size());
  for (size_t s = 0; s < a.sessions.size(); ++s) {
    EXPECT_EQ(a.sessions[s].tasks_completed(), b.sessions[s].tasks_completed());
    EXPECT_DOUBLE_EQ(a.sessions[s].duration_minutes,
                     b.sessions[s].duration_minutes);
  }
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(ConcurrentDeploymentTest, OnlineExperimentConcurrentModeWorks) {
  OnlineExperimentOptions options;
  options.sessions_per_strategy = 4;
  options.session.max_minutes = 6.0;
  options.catalog.num_groups = 15;
  options.catalog.tasks_per_group = 30;
  options.strategies = {StrategyKind::kHtaGre};
  options.concurrent_sessions = true;
  options.arrival_rate_per_min = 2.0;
  options.seed = 5;
  const OnlineExperimentResult result = RunOnlineExperiment(options);
  const StrategyCurves& c = result.ForStrategy(StrategyKind::kHtaGre);
  EXPECT_GT(c.total_tasks, 0u);
  EXPECT_EQ(c.tasks_per_session.size(), 4u);
}

}  // namespace
}  // namespace hta
