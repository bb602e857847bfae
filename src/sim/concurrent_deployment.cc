#include "sim/concurrent_deployment.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "sim/deployment_loop.h"
#include "util/check.h"
#include "util/rng.h"

namespace hta {

namespace sim_internal {

DeploymentMetrics& Dm() {
  static DeploymentMetrics* m = new DeploymentMetrics();
  return *m;
}

}  // namespace sim_internal

namespace {

/// Adapts one shard of a ShardedAssignmentService to the Service
/// concept of RunDeploymentLoop: clock calls touch only this shard's
/// clock, and the DCHECK pins every registered worker to the expected
/// shard (the loop only simulates slots routed here).
struct ShardHandle {
  ShardedAssignmentService* service;
  size_t shard;

  void AdvanceClock(double minute) {
    service->AdvanceShardClock(shard, minute);
  }
  uint64_t RegisterWorker(const KeywordVector& interests) {
    const uint64_t id = service->RegisterWorker(interests);
    HTA_DCHECK_EQ(service->ShardOfWorker(id), shard);
    return id;
  }
  std::vector<size_t> Displayed(uint64_t worker_id) const {
    return service->Displayed(worker_id);
  }
  Status NotifyCompleted(uint64_t worker_id, size_t catalog_index) {
    return service->NotifyCompleted(worker_id, catalog_index);
  }
  void Deregister(uint64_t worker_id) { service->Deregister(worker_id); }
  double clock_minutes() const {
    return service->shard_clock_minutes(shard);
  }
};

/// Peak simultaneous sessions across the whole deployment via a
/// sweepline over (arrival, end) intervals: at equal minutes arrivals
/// count before ends, matching the live counting of the event loop
/// (an arrival event always precedes a same-minute session end in the
/// queue's (minute, sequence) order because arrivals are pre-queued
/// with the lowest sequences).
size_t PeakConcurrentSessions(const std::vector<SessionResult>& sessions) {
  std::vector<std::pair<double, int>> points;
  points.reserve(2 * sessions.size());
  for (const SessionResult& session : sessions) {
    points.emplace_back(session.arrival_minute, +1);
    points.emplace_back(session.ended_minute, -1);
  }
  std::sort(points.begin(), points.end(),
            [](const std::pair<double, int>& a,
               const std::pair<double, int>& b) {
              if (a.first != b.first) return a.first < b.first;
              return a.second > b.second;  // +1 before -1.
            });
  size_t concurrent = 0;
  size_t peak = 0;
  for (const auto& [minute, delta] : points) {
    if (delta > 0) {
      peak = std::max(peak, ++concurrent);
    } else {
      --concurrent;
    }
  }
  return peak;
}

/// Fills `result`'s iteration aggregates from the shards' logs in
/// shard order: the iteration count, the summed setup and solve
/// seconds, and the mean |W^i| pooled over every solver-backed
/// iteration of every shard.
void AggregateIterations(const ShardedAssignmentService& service,
                         DeploymentResult* result) {
  double pooled_sum = 0.0;
  size_t pooled_count = 0;
  for (size_t s = 0; s < service.num_shards(); ++s) {
    const AssignmentService& shard = service.shard(s);
    result->iterations += shard.iteration_count();
    for (const IterationRecord& record : shard.iterations()) {
      if (record.task_count > 0) {  // Solver-backed iteration.
        pooled_sum += static_cast<double>(record.worker_count);
        ++pooled_count;
      }
      result->total_setup_seconds += record.setup_seconds;
      result->total_solve_seconds += record.solve_seconds;
    }
  }
  result->mean_workers_per_iteration =
      pooled_count > 0 ? pooled_sum / static_cast<double>(pooled_count) : 0.0;
}

}  // namespace

std::vector<double> PoissonArrivalMinutes(size_t count, double rate_per_min,
                                          uint64_t seed) {
  std::vector<double> arrivals(count);
  Rng rng(seed);
  double arrival = 0.0;
  for (size_t slot = 0; slot < count; ++slot) {
    arrival += rng.NextExponential(rate_per_min);
    arrivals[slot] = arrival;
  }
  return arrivals;
}

DeploymentResult RunConcurrentDeployment(
    ShardedAssignmentService* service, const Catalog& catalog,
    std::vector<BehavioralWorker>* workers,
    const ConcurrentDeploymentOptions& options) {
  HTA_CHECK(service != nullptr);
  HTA_CHECK(workers != nullptr);
  HTA_CHECK_GT(options.arrival_rate_per_min, 0.0);

  DeploymentResult result;
  result.sessions.resize(workers->size());
  if (workers->empty()) return result;

  const size_t num_shards = service->num_shards();
  const size_t driver_threads =
      std::clamp<size_t>(options.driver_threads, 1, num_shards);

  // One arrival stream in slot order: every worker arrives at the same
  // minute whatever shard its slot lands in.
  const std::vector<double> arrivals = PoissonArrivalMinutes(
      workers->size(), options.arrival_rate_per_min, options.seed);

  // Route slots to shards by interest hash, ascending slot order within
  // each shard (the per-shard loop's event sequences depend on it).
  std::vector<std::vector<size_t>> shard_slots(num_shards);
  for (size_t slot = 0; slot < workers->size(); ++slot) {
    shard_slots[service->ShardForInterests(
                    (*workers)[slot].profile().interests())]
        .push_back(slot);
  }

  // Each shard's loop is fully self-contained — own slots, own service
  // shard, own event queue — so any thread may run it with identical
  // results; threads exist purely to overlap wall-clock across shards.
  std::vector<sim_internal::LoopStats> stats(num_shards);
  const auto run_shard = [&](size_t s) {
    ShardHandle handle{service, s};
    stats[s] = sim_internal::RunDeploymentLoop(
        &handle, catalog, workers, shard_slots[s], arrivals, options.session,
        &result.sessions);
  };
  if (driver_threads == 1) {
    for (size_t s = 0; s < num_shards; ++s) run_shard(s);
  } else {
    std::vector<std::thread> threads;
    threads.reserve(driver_threads);
    for (size_t t = 0; t < driver_threads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t s = t; s < num_shards; s += driver_threads) run_shard(s);
      });
    }
    for (std::thread& thread : threads) thread.join();
  }

  // All aggregation below is post-join, single-threaded, fixed shard
  // order — this is where driver-thread scheduling stops mattering.
  service->FlushEventLog();
  for (const sim_internal::LoopStats& shard_stats : stats) {
    result.deployment_minutes =
        std::max(result.deployment_minutes, shard_stats.deployment_minutes);
  }
  AggregateIterations(*service, &result);
  result.max_concurrent_sessions =
      num_shards == 1 ? stats[0].peak_concurrent
                      : PeakConcurrentSessions(result.sessions);
  return result;
}

DeploymentResult RunSequentialDeployment(
    ShardedAssignmentService* service, const Catalog& catalog,
    std::vector<BehavioralWorker>* workers, const SessionConfig& session) {
  HTA_CHECK(service != nullptr);
  HTA_CHECK(workers != nullptr);

  DeploymentResult result;
  result.sessions.resize(workers->size());
  std::vector<double> arrivals(workers->size(), 0.0);
  for (size_t slot = 0; slot < workers->size(); ++slot) {
    ShardHandle handle{service, service->ShardForInterests(
                                    (*workers)[slot].profile().interests())};
    arrivals[slot] = handle.clock_minutes();
    const sim_internal::LoopStats stats = sim_internal::RunDeploymentLoop(
        &handle, catalog, workers, {slot}, arrivals, session,
        &result.sessions);
    result.deployment_minutes =
        std::max(result.deployment_minutes, stats.deployment_minutes);
    result.max_concurrent_sessions =
        std::max(result.max_concurrent_sessions, stats.peak_concurrent);
  }
  service->FlushEventLog();
  AggregateIterations(*service, &result);
  return result;
}

}  // namespace hta
