#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "sim/concurrent_deployment.h"
#include "sim/worker_gen.h"
#include "util/metrics.h"

namespace hta {
namespace {

/// Pins the observability layer's two engine-wide contracts:
///  1. the deterministic metrics digest is bit-identical for every
///     solver thread cap, and
///  2. turning instrumentation on changes nothing the engine computes.

Catalog TestCatalog() {
  CatalogOptions options;
  options.num_groups = 15;
  options.tasks_per_group = 40;
  options.vocabulary_size = 150;
  auto c = GenerateCatalog(options);
  HTA_CHECK(c.ok());
  return std::move(*c);
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

DeploymentResult RunDeployment(const Catalog& catalog, size_t solver_threads) {
  ShardedServiceOptions service_options;
  service_options.service.strategy = StrategyKind::kHtaGre;
  service_options.service.xmax = 6;
  service_options.service.extra_random_tasks = 2;
  service_options.service.refresh_after_completions = 3;
  service_options.service.max_tasks_per_iteration = 100;
  service_options.service.solver_threads = solver_threads;
  ShardedAssignmentService service(&catalog.tasks, service_options);
  auto workers = TestWorkers(catalog, 6);
  ConcurrentDeploymentOptions options;
  options.arrival_rate_per_min = 2.0;
  options.session.max_minutes = 8.0;
  return RunConcurrentDeployment(&service, catalog, &workers, options);
}

TEST(MetricsDeterminismTest, DigestIdenticalAcrossSolverThreadCaps) {
  const Catalog catalog = TestCatalog();
  metrics::OverrideEnabled(true);
  std::string reference;
  for (const size_t threads : {size_t{0}, size_t{1}, size_t{2}, size_t{4}}) {
    metrics::ResetForTesting();
    RunDeployment(catalog, threads);
    const std::string digest = metrics::DeterministicDigest();
    EXPECT_FALSE(digest.empty());
    if (reference.empty()) {
      reference = digest;
    } else {
      EXPECT_EQ(digest, reference)
          << "metric totals changed under solver_threads=" << threads;
    }
  }
  metrics::ResetForTesting();
  metrics::OverrideEnabled(false);
}

TEST(MetricsDeterminismTest, InstrumentationDoesNotPerturbTheEngine) {
  const Catalog catalog = TestCatalog();
  metrics::OverrideEnabled(false);
  const DeploymentResult off = RunDeployment(catalog, 0);
  metrics::OverrideEnabled(true);
  metrics::ResetForTesting();
  const DeploymentResult on = RunDeployment(catalog, 0);
  metrics::ResetForTesting();
  metrics::OverrideEnabled(false);

  EXPECT_EQ(on.iterations, off.iterations);
  ASSERT_EQ(on.sessions.size(), off.sessions.size());
  for (size_t s = 0; s < on.sessions.size(); ++s) {
    const SessionResult& a = on.sessions[s];
    const SessionResult& b = off.sessions[s];
    EXPECT_EQ(a.worker_id, b.worker_id);
    EXPECT_EQ(a.left_voluntarily, b.left_voluntarily);
    EXPECT_EQ(a.duration_minutes, b.duration_minutes);
    EXPECT_EQ(a.arrival_minute, b.arrival_minute);
    EXPECT_EQ(a.ended_minute, b.ended_minute);
    ASSERT_EQ(a.events.size(), b.events.size());
    for (size_t e = 0; e < a.events.size(); ++e) {
      EXPECT_EQ(a.events[e].catalog_task, b.events[e].catalog_task);
      EXPECT_EQ(a.events[e].session_minute, b.events[e].session_minute);
      EXPECT_EQ(a.events[e].wall_minute, b.events[e].wall_minute);
      EXPECT_EQ(a.events[e].correct, b.events[e].correct);
    }
  }
}

TEST(MetricsDeterminismTest, EngineCountersReflectTheDeployment) {
  const Catalog catalog = TestCatalog();
  metrics::OverrideEnabled(true);
  metrics::ResetForTesting();
  const DeploymentResult result = RunDeployment(catalog, 0);
  size_t completions = 0;
  for (const SessionResult& s : result.sessions) {
    completions += s.tasks_completed();
  }
  uint64_t metric_completions = 0;
  uint64_t metric_iterations = 0;
  uint64_t metric_registrations = 0;
  uint64_t metric_expirations = 0;
  uint64_t metric_deregistrations = 0;
  for (const metrics::MetricValue& v : metrics::Snapshot()) {
    if (v.name == "engine.completions") metric_completions = v.count;
    if (v.name == "engine.iterations") metric_iterations = v.count;
    if (v.name == "engine.registrations") metric_registrations = v.count;
    if (v.name == "engine.deregistrations") metric_deregistrations = v.count;
    if (v.name == "deployment.expirations") metric_expirations = v.count;
  }
  EXPECT_EQ(metric_completions, completions);
  EXPECT_EQ(metric_iterations, result.iterations);
  EXPECT_EQ(metric_registrations, result.sessions.size());
  EXPECT_EQ(metric_deregistrations, result.sessions.size());
  // Every non-voluntary session either expired at the cap or ran the
  // platform dry; expirations can never exceed the involuntary count.
  size_t involuntary = 0;
  for (const SessionResult& s : result.sessions) {
    if (!s.left_voluntarily) ++involuntary;
  }
  EXPECT_LE(metric_expirations, involuntary);
  metrics::ResetForTesting();
  metrics::OverrideEnabled(false);
}

}  // namespace
}  // namespace hta
