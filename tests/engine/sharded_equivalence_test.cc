// Sharded-service equivalence: the two safety properties the sharded
// front-end ships with.
//
//  1. One shard IS the unsharded service: a ShardedAssignmentService
//     with HTA_SHARDS=1 and a bare AssignmentService over the same
//     catalog are driven through an identical scripted deployment and
//     must stay EXPECT_EQ-identical at every observable step —
//     displayed bundles, weight estimates, pool state, and the full
//     iteration-record stream — across every DistanceKind and with
//     warm start both off and on, including a mid-script Deregister.
//
//  2. Driver scheduling never shows: a 4-shard concurrent deployment
//     is bit-identical across driver-thread caps {1, 2, 4} and solver
//     thread caps {0, 1, 4} — same sessions (down to every completion
//     event), same merged audit log, same iteration records per shard.
//     Sessions end mid-run throughout (voluntary leaves and expiry both
//     Deregister from inside the loop), so the equivalence covers
//     mid-run deregistration by construction.
#include <cstdlib>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "engine/assignment_service.h"
#include "engine/sharded_service.h"
#include "sim/behavior.h"
#include "sim/catalog.h"
#include "sim/sharded_deployment.h"
#include "sim/worker_gen.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/status.h"

namespace hta {
namespace {

/// Pins an environment variable for one test, restoring the previous
/// state on destruction (the CI suite runs with HTA_SHARDS=4 — tests
/// that mean "exactly one shard" must say so explicitly).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    setenv(name, value, /*overwrite=*/1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_.c_str(), old_.c_str(), /*overwrite=*/1);
    } else {
      unsetenv(name_.c_str());
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

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

void ExpectSameIterationRecords(const std::vector<IterationRecord>& a,
                                const std::vector<IterationRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].iteration, b[i].iteration);
    EXPECT_EQ(a[i].worker_count, b[i].worker_count);
    EXPECT_EQ(a[i].task_count, b[i].task_count);
    EXPECT_EQ(a[i].motivation, b[i].motivation);  // Bit-identical doubles.
    EXPECT_EQ(a[i].warm_seeded, b[i].warm_seeded);
    EXPECT_EQ(a[i].carried_tasks, b[i].carried_tasks);
    EXPECT_EQ(a[i].repaired_slots, b[i].repaired_slots);
    // solve_seconds / setup_seconds are wall clock — excluded.
  }
}

void ExpectSameEvents(const EventLog& a, const EventLog& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    const LoggedEvent& ea = a.events()[i];
    const LoggedEvent& eb = b.events()[i];
    EXPECT_EQ(ea.minute, eb.minute) << "event " << i;
    EXPECT_EQ(ea.worker_id, eb.worker_id) << "event " << i;
    EXPECT_EQ(static_cast<int>(ea.kind), static_cast<int>(eb.kind))
        << "event " << i;
    EXPECT_EQ(ea.task_ids, eb.task_ids) << "event " << i;
  }
}

// ---------------------------------------------------------------------------
// Property 1: one shard is bit-identical to the unsharded service.

class OneShardEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<DistanceKind, bool>> {};

TEST_P(OneShardEquivalenceTest, ScriptedDeploymentIsBitIdentical) {
  const DistanceKind kind = std::get<0>(GetParam());
  const bool warm_start = std::get<1>(GetParam());
  ScopedEnv pin_shards("HTA_SHARDS", "1");
  ScopedEnv pin_warm_start("HTA_WARM_START", warm_start ? "1" : "0");
  constexpr size_t kUniverse = 70;
  const auto catalog = RandomCatalog(260, kUniverse, 21);
  const auto interests = RandomInterests(5, kUniverse, 22);

  AssignmentServiceOptions options;
  options.strategy = StrategyKind::kHtaGre;
  options.metric = kind;
  options.xmax = 5;
  options.extra_random_tasks = 2;
  options.refresh_after_completions = 3;
  options.min_batch_workers = 2;
  options.max_tasks_per_iteration = 40;
  options.seed = 77;

  EventLog flat_log;
  AssignmentServiceOptions flat_options = options;
  flat_options.event_log = &flat_log;
  AssignmentService flat(&catalog, flat_options);

  EventLog sharded_log;
  ShardedServiceOptions sharded_options;
  sharded_options.service = options;
  sharded_options.service.event_log = &sharded_log;
  sharded_options.num_shards = 1;
  ShardedAssignmentService sharded(&catalog, sharded_options);
  ASSERT_EQ(sharded.num_shards(), size_t{1});

  std::vector<uint64_t> ids;
  const auto expect_same_state = [&] {
    for (uint64_t id : ids) {
      ASSERT_EQ(sharded.Displayed(id), flat.Displayed(id)) << "worker " << id;
      const MotivationWeights sw = sharded.CurrentWeights(id);
      const MotivationWeights fw = flat.CurrentWeights(id);
      EXPECT_EQ(sw.alpha, fw.alpha);
      EXPECT_EQ(sw.beta, fw.beta);
    }
    EXPECT_EQ(sharded.shard(0).pool().available_count(),
              flat.pool().available_count());
    EXPECT_EQ(sharded.shard(0).pool().completed_count(),
              flat.pool().completed_count());
  };

  double minute = 0.0;
  for (const KeywordVector& v : interests) {
    minute += 0.5;
    flat.AdvanceClock(minute);
    sharded.AdvanceClock(minute);
    const uint64_t flat_id = flat.RegisterWorker(v);
    const uint64_t sharded_id = sharded.RegisterWorker(v);
    ASSERT_EQ(sharded_id, flat_id);
    ids.push_back(flat_id);
    expect_same_state();
  }

  for (size_t round = 0; round < 4; ++round) {
    for (uint64_t id : ids) {
      for (size_t c = 0; c < 2; ++c) {
        const std::vector<size_t> displayed = flat.Displayed(id);
        if (displayed.empty()) break;
        minute += 0.25;
        flat.AdvanceClock(minute);
        sharded.AdvanceClock(minute);
        ASSERT_TRUE(flat.NotifyCompleted(id, displayed.front()).ok());
        ASSERT_TRUE(sharded.NotifyCompleted(id, displayed.front()).ok());
        expect_same_state();
      }
    }
    if (round == 1) {
      // A mid-deployment departure must not disturb equivalence.
      minute += 0.25;
      flat.AdvanceClock(minute);
      sharded.AdvanceClock(minute);
      flat.Deregister(ids.back());
      sharded.Deregister(ids.back());
      ids.pop_back();
      expect_same_state();
    }
  }

  EXPECT_EQ(sharded.iteration_count(), flat.iteration_count());
  ExpectSameIterationRecords(sharded.shard(0).iterations(),
                             flat.iterations());
  // Pass-through mode writes the caller's log directly; Flush must be
  // a no-op and both audit trails identical event for event.
  sharded.FlushEventLog();
  ExpectSameEvents(sharded_log, flat_log);
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, OneShardEquivalenceTest,
    ::testing::Combine(::testing::Values(DistanceKind::kJaccard,
                                         DistanceKind::kDice,
                                         DistanceKind::kHamming,
                                         DistanceKind::kCosineAngular),
                       ::testing::Bool()));

// ---------------------------------------------------------------------------
// Property 2: a 4-shard deployment is bit-identical across driver
// thread caps and solver thread caps.

struct DeploymentRun {
  DeploymentResult result;
  EventLog log;
  std::vector<std::vector<IterationRecord>> shard_iterations;
  size_t completions = 0;
};

DeploymentRun RunOnce(const Catalog& catalog,
                      const std::vector<Worker>& profiles,
                      size_t driver_threads, size_t solver_threads,
                      bool warm_start) {
  ScopedEnv pin_shards("HTA_SHARDS", "4");
  ScopedEnv pin_warm_start("HTA_WARM_START", warm_start ? "1" : "0");
  // Workers are stateful (boredom, history, RNG): rebuild the same
  // population from the same seeds for every run.
  std::vector<BehavioralWorker> behavioral;
  behavioral.reserve(profiles.size());
  for (size_t s = 0; s < profiles.size(); ++s) {
    Rng param_rng(4242 ^ (0x9e3779b97f4a7c15ULL * (s + 1)));
    const BehaviorParams params = SampleBehaviorParams(&param_rng);
    behavioral.emplace_back(&catalog.tasks, DistanceKind::kJaccard,
                            profiles[s], params, param_rng.Fork(17));
  }

  DeploymentRun run;
  ShardedServiceOptions options;
  options.num_shards = 4;
  options.service.strategy = StrategyKind::kHtaGre;
  options.service.xmax = 5;
  options.service.extra_random_tasks = 2;
  options.service.refresh_after_completions = 2;
  options.service.max_tasks_per_iteration = 80;
  options.service.solver_threads = solver_threads;
  options.service.seed = 99;
  options.service.event_log = &run.log;
  ShardedAssignmentService service(&catalog.tasks, options);
  EXPECT_EQ(service.num_shards(), size_t{4});

  ShardedDeploymentOptions deployment;
  deployment.arrival_rate_per_min = 1.5;
  deployment.session.max_minutes = 5.0;
  deployment.seed = 1234;
  deployment.driver_threads = driver_threads;
  run.result = RunShardedDeployment(&service, catalog, &behavioral,
                                    deployment);
  for (size_t s = 0; s < service.num_shards(); ++s) {
    run.shard_iterations.push_back(service.shard(s).iterations());
  }
  for (const SessionResult& session : run.result.sessions) {
    run.completions += session.events.size();
  }
  return run;
}

void ExpectSameRun(const DeploymentRun& a, const DeploymentRun& b) {
  EXPECT_EQ(a.completions, b.completions);
  EXPECT_EQ(a.result.iterations, b.result.iterations);
  EXPECT_EQ(a.result.deployment_minutes, b.result.deployment_minutes);
  EXPECT_EQ(a.result.max_concurrent_sessions,
            b.result.max_concurrent_sessions);
  EXPECT_EQ(a.result.mean_workers_per_iteration,
            b.result.mean_workers_per_iteration);
  ASSERT_EQ(a.result.sessions.size(), b.result.sessions.size());
  for (size_t s = 0; s < a.result.sessions.size(); ++s) {
    const SessionResult& sa = a.result.sessions[s];
    const SessionResult& sb = b.result.sessions[s];
    EXPECT_EQ(sa.worker_id, sb.worker_id) << "slot " << s;
    EXPECT_EQ(sa.arrival_minute, sb.arrival_minute);
    EXPECT_EQ(sa.ended_minute, sb.ended_minute);
    EXPECT_EQ(sa.duration_minutes, sb.duration_minutes);
    EXPECT_EQ(sa.left_voluntarily, sb.left_voluntarily);
    ASSERT_EQ(sa.events.size(), sb.events.size()) << "slot " << s;
    for (size_t e = 0; e < sa.events.size(); ++e) {
      EXPECT_EQ(sa.events[e].wall_minute, sb.events[e].wall_minute);
      EXPECT_EQ(sa.events[e].worker_id, sb.events[e].worker_id);
      EXPECT_EQ(sa.events[e].catalog_task, sb.events[e].catalog_task);
      EXPECT_EQ(sa.events[e].questions, sb.events[e].questions);
      EXPECT_EQ(sa.events[e].correct, sb.events[e].correct);
    }
  }
  ASSERT_EQ(a.shard_iterations.size(), b.shard_iterations.size());
  for (size_t s = 0; s < a.shard_iterations.size(); ++s) {
    ExpectSameIterationRecords(a.shard_iterations[s], b.shard_iterations[s]);
  }
  ExpectSameEvents(a.log, b.log);
}

class ShardedDeploymentDeterminismTest : public ::testing::Test {
 protected:
  static Catalog MakeDeploymentCatalog() {
    CatalogOptions options;
    options.num_groups = 12;
    options.tasks_per_group = 50;
    options.vocabulary_size = 120;
    options.seed = 31;
    auto catalog = GenerateCatalog(options);
    HTA_CHECK(catalog.ok()) << catalog.status();
    return std::move(*catalog);
  }
  static std::vector<Worker> MakeProfiles(const Catalog& catalog) {
    WorkerGenOptions options;
    options.count = 8;
    options.seed = 32;
    auto workers = GenerateWorkers(options, catalog);
    HTA_CHECK(workers.ok()) << workers.status();
    return std::move(*workers);
  }
};

TEST_F(ShardedDeploymentDeterminismTest,
       BitIdenticalAcrossDriverAndSolverThreadCaps) {
  const Catalog catalog = MakeDeploymentCatalog();
  const std::vector<Worker> profiles = MakeProfiles(catalog);

  const DeploymentRun reference = RunOnce(catalog, profiles,
                                          /*driver_threads=*/1,
                                          /*solver_threads=*/0,
                                          /*warm_start=*/false);
  EXPECT_GT(reference.completions, size_t{0});
  EXPECT_GT(reference.result.iterations, size_t{0});
  EXPECT_FALSE(reference.log.empty());

  for (const size_t driver_threads : {size_t{1}, size_t{2}, size_t{4}}) {
    for (const size_t solver_threads : {size_t{0}, size_t{1}, size_t{4}}) {
      if (driver_threads == 1 && solver_threads == 0) continue;  // Reference.
      SCOPED_TRACE("driver_threads=" + std::to_string(driver_threads) +
                   " solver_threads=" + std::to_string(solver_threads));
      const DeploymentRun run = RunOnce(catalog, profiles, driver_threads,
                                        solver_threads, /*warm_start=*/false);
      ExpectSameRun(reference, run);
    }
  }
}

TEST_F(ShardedDeploymentDeterminismTest, WarmStartOnIsEquallyDeterministic) {
  const Catalog catalog = MakeDeploymentCatalog();
  const std::vector<Worker> profiles = MakeProfiles(catalog);

  const DeploymentRun reference = RunOnce(catalog, profiles,
                                          /*driver_threads=*/1,
                                          /*solver_threads=*/0,
                                          /*warm_start=*/true);
  EXPECT_GT(reference.completions, size_t{0});
  for (const size_t driver_threads : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE("driver_threads=" + std::to_string(driver_threads));
    const DeploymentRun run = RunOnce(catalog, profiles, driver_threads,
                                      /*solver_threads=*/4,
                                      /*warm_start=*/true);
    ExpectSameRun(reference, run);
  }
}

// ---------------------------------------------------------------------------
// Front-end unit properties.

TEST(ShardedServiceTest, TaskIndexMappingRoundTrips) {
  ScopedEnv pin_shards("HTA_SHARDS", "4");
  const auto catalog = RandomCatalog(103, 40, 5);  // Not divisible by 4.
  ShardedServiceOptions options;
  options.num_shards = 4;
  ShardedAssignmentService service(&catalog, options);
  ASSERT_EQ(service.num_shards(), size_t{4});
  size_t owned = 0;
  for (size_t s = 0; s < 4; ++s) {
    owned += service.shard(s).pool().available_count();
  }
  EXPECT_EQ(owned, catalog.size());  // Disjoint cover, no task dropped.
  for (size_t g = 0; g < catalog.size(); ++g) {
    const size_t shard = service.ShardOfTask(g);
    EXPECT_LT(shard, size_t{4});
    EXPECT_EQ(service.GlobalTaskIndex(shard, service.LocalTaskIndex(g)), g);
  }
}

TEST(ShardedServiceTest, InterestHashIsDeterministicAndInRange) {
  ScopedEnv pin_shards("HTA_SHARDS", "4");
  const auto catalog = RandomCatalog(64, 40, 6);
  ShardedServiceOptions options;
  options.num_shards = 4;
  ShardedAssignmentService a(&catalog, options);
  ShardedAssignmentService b(&catalog, options);
  const auto interests = RandomInterests(32, 40, 7);
  for (const KeywordVector& v : interests) {
    const size_t shard = a.ShardForInterests(v);
    EXPECT_LT(shard, size_t{4});
    EXPECT_EQ(b.ShardForInterests(v), shard) << "hash must be instance-free";
  }
}

TEST(ShardedServiceTest, CrossShardCompletionIsRejected) {
  ScopedEnv pin_shards("HTA_SHARDS", "4");
  const auto catalog = RandomCatalog(120, 40, 8);
  ShardedServiceOptions options;
  options.num_shards = 4;
  options.service.xmax = 4;
  options.service.extra_random_tasks = 1;
  ShardedAssignmentService service(&catalog, options);
  const auto interests = RandomInterests(1, 40, 9);
  const uint64_t id = service.RegisterWorker(interests[0]);
  const size_t worker_shard = service.ShardOfWorker(id);
  // Any global index from another shard must bounce, even if in range.
  const size_t foreign = (worker_shard + 1) % 4;
  const Status status = service.NotifyCompleted(id, foreign);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  // The worker's own displayed tasks are all in their shard and accept.
  const std::vector<size_t> displayed = service.Displayed(id);
  ASSERT_FALSE(displayed.empty());
  for (const size_t g : displayed) {
    EXPECT_EQ(service.ShardOfTask(g), worker_shard);
  }
  EXPECT_TRUE(service.NotifyCompleted(id, displayed.front()).ok());
}

TEST(ShardedServiceTest, EnvOverrideControlsShardCount) {
  const auto catalog = RandomCatalog(60, 40, 10);
  {
    ScopedEnv pin_shards("HTA_SHARDS", "3");
    ShardedServiceOptions options;
    options.num_shards = 1;  // Env wins.
    ShardedAssignmentService service(&catalog, options);
    EXPECT_EQ(service.num_shards(), size_t{3});
  }
  {
    // Shard counts beyond the catalog clamp (no empty shards).
    ScopedEnv pin_shards("HTA_SHARDS", "100");
    ShardedServiceOptions options;
    ShardedAssignmentService service(&catalog, options);
    EXPECT_EQ(service.num_shards(), size_t{60});
  }
}

// A shard's service rejects interests from another keyword universe
// at registration, whichever shard the hash routes them to.
TEST(ShardedServiceDeathTest, WrongUniverseInterestsAbortAtRegistration) {
  ScopedEnv pin_shards("HTA_SHARDS", "2");
  const auto catalog = RandomCatalog(60, 40, 11);
  ShardedServiceOptions options;
  options.num_shards = 2;
  options.service.xmax = 4;
  ShardedAssignmentService service(&catalog, options);
  ASSERT_EQ(service.num_shards(), size_t{2});
  EXPECT_DEATH(service.RegisterWorker(KeywordVector(40 + 64, {1, 2})),
               "keyword universe");
}

}  // namespace
}  // namespace hta
