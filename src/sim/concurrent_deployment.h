#ifndef HTA_SIM_CONCURRENT_DEPLOYMENT_H_
#define HTA_SIM_CONCURRENT_DEPLOYMENT_H_

#include <vector>

#include "engine/sharded_service.h"
#include "sim/behavior.h"
#include "sim/catalog.h"
#include "sim/crowd_sim.h"

namespace hta {

/// Configuration of a concurrent deployment: workers arrive over time
/// (Poisson process) and their sessions overlap, so an assignment
/// iteration can pool several due workers into one HTA solve — the
/// W^i sets of Problem 1 with |W^i| > 1, as in the paper's live AMT
/// deployment where multiple HITs ran at once. (RunSequentialDeployment
/// by contrast runs sessions one at a time.)
struct ConcurrentDeploymentOptions {
  /// Mean worker arrivals per minute.
  double arrival_rate_per_min = 0.75;
  SessionConfig session;
  uint64_t seed = 99;
  /// Load-generating threads, clamped to [1, num_shards] (0 counts as
  /// 1) — a shard's event loop is serial, threads only parallelize
  /// *across* shards.
  size_t driver_threads = 1;
};

/// Deployment-level diagnostics on top of the per-session results.
struct DeploymentResult {
  std::vector<SessionResult> sessions;  ///< One per worker, arrival order.
  double deployment_minutes = 0.0;      ///< Wall-clock until the last
                                        ///< session ended.
  size_t iterations = 0;                ///< Service iterations performed.
  double mean_workers_per_iteration = 0.0;  ///< Mean |W^i| over
                                            ///< solver-backed iterations.
  size_t max_concurrent_sessions = 0;       ///< Peak simultaneous workers
                                            ///< (a count of sessions).
  /// Summed problem-construction time across iterations (the part the
  /// service's warm catalog cache amortizes; see IterationRecord).
  double total_setup_seconds = 0.0;
  /// Summed end-to-end iteration time (setup + solve + bookkeeping).
  double total_solve_seconds = 0.0;
};

/// Cumulative Poisson-process arrival times (minutes) for `count`
/// workers: the canonical arrival stream every deployment draws from
/// `Rng(seed)` in slot order, so the same (count, rate, seed) triple
/// always produces the same schedule, however the slots are sharded.
std::vector<double> PoissonArrivalMinutes(size_t count, double rate_per_min,
                                          uint64_t seed);

/// Runs a concurrent deployment: each worker in `workers` arrives at a
/// Poisson-process time and works a session against `service`.
/// Workers are routed to shards by their interest hash, and each
/// shard's discrete-event loop runs independently — on
/// `driver_threads` threads, thread t driving shards t, t + T, ...
/// Per-shard event streams are merged after the run in deterministic
/// (timestamp, worker_id) order into the caller's EventLog and the
/// DeploymentResult, so the result is a function of the option seed
/// and the workers' own streams alone: bit-identical for any
/// driver-thread cap and any HTA_THREADS.
///
/// Each shard solves over its own catalog slice, so the deployment
/// depends on the shard count; at the default of one shard it is the
/// single-service deployment.
DeploymentResult RunConcurrentDeployment(
    ShardedAssignmentService* service, const Catalog& catalog,
    std::vector<BehavioralWorker>* workers,
    const ConcurrentDeploymentOptions& options);

/// Runs the workers' sessions back to back, in slot order (Fig. 5's
/// default mode): each worker arrives at its shard's clock, which the
/// previous session on that shard left at its end, and works a
/// session through the same event loop as RunConcurrentDeployment.
/// Sessions never overlap, so `max_concurrent_sessions` is 1 and every
/// iteration solves for one worker. The service outlives the call and
/// keeps its state (the task pool depletes, as on a real platform).
DeploymentResult RunSequentialDeployment(
    ShardedAssignmentService* service, const Catalog& catalog,
    std::vector<BehavioralWorker>* workers, const SessionConfig& session);

}  // namespace hta

#endif  // HTA_SIM_CONCURRENT_DEPLOYMENT_H_
