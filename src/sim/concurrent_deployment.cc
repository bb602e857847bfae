#include "sim/concurrent_deployment.h"

#include <numeric>

#include "sim/deployment_loop.h"
#include "util/check.h"
#include "util/rng.h"

namespace hta {

namespace sim_internal {

DeploymentMetrics& Dm() {
  static DeploymentMetrics* m = new DeploymentMetrics();
  return *m;
}

void AggregateIterations(const std::vector<const AssignmentService*>& services,
                         DeploymentResult* result) {
  double pooled_sum = 0.0;
  size_t pooled_count = 0;
  for (const AssignmentService* service : services) {
    result->iterations += service->iteration_count();
    for (const IterationRecord& record : service->iterations()) {
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

}  // namespace sim_internal

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
    AssignmentService* service, const Catalog& catalog,
    std::vector<BehavioralWorker>* workers,
    const ConcurrentDeploymentOptions& options) {
  HTA_CHECK(service != nullptr);
  HTA_CHECK(workers != nullptr);
  HTA_CHECK_GT(options.arrival_rate_per_min, 0.0);

  DeploymentResult result;
  result.sessions.resize(workers->size());
  if (workers->empty()) return result;

  const std::vector<double> arrivals = PoissonArrivalMinutes(
      workers->size(), options.arrival_rate_per_min, options.seed);
  std::vector<size_t> slots(workers->size());
  std::iota(slots.begin(), slots.end(), size_t{0});

  const sim_internal::LoopStats stats = sim_internal::RunDeploymentLoop(
      service, catalog, workers, slots, arrivals, options.session,
      &result.sessions);
  result.deployment_minutes = stats.deployment_minutes;
  result.max_concurrent_sessions = stats.peak_concurrent;

  sim_internal::AggregateIterations({service}, &result);
  return result;
}

}  // namespace hta
