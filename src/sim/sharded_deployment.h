#ifndef HTA_SIM_SHARDED_DEPLOYMENT_H_
#define HTA_SIM_SHARDED_DEPLOYMENT_H_

#include <vector>

#include "engine/sharded_service.h"
#include "sim/concurrent_deployment.h"

namespace hta {

/// Configuration of a sharded concurrent deployment: the arrival
/// process and session shape of ConcurrentDeploymentOptions (same
/// defaults, same seed semantics — the arrival stream is bit-identical
/// to the unsharded driver's for equal (worker count, rate, seed)) plus
/// the driver's thread count.
struct ShardedDeploymentOptions : ConcurrentDeploymentOptions {
  /// Load-generating threads, clamped to [1, num_shards] (0 counts as
  /// 1) — a shard's event loop is serial, threads only parallelize
  /// *across* shards.
  size_t driver_threads = 1;
};

/// Runs a concurrent deployment against a sharded service: workers are
/// routed to shards by their interest hash, and each shard's discrete-
/// event loop (the same loop RunConcurrentDeployment uses) runs
/// independently — on `driver_threads` threads, thread t driving
/// shards t, t + T, ... Per-shard event streams are merged after the
/// run in deterministic (timestamp, worker_id) order into the caller's
/// EventLog and the DeploymentResult, so the result is bit-identical
/// for any driver-thread cap and any HTA_THREADS.
///
/// Note the sharded simulation is a *different* (equally valid)
/// deployment than the unsharded one unless num_shards == 1: each
/// shard solves over its own catalog slice. With one shard the result
/// is bit-identical to RunConcurrentDeployment on the wrapped service.
DeploymentResult RunShardedDeployment(ShardedAssignmentService* service,
                                      const Catalog& catalog,
                                      std::vector<BehavioralWorker>* workers,
                                      const ShardedDeploymentOptions& options);

}  // namespace hta

#endif  // HTA_SIM_SHARDED_DEPLOYMENT_H_
