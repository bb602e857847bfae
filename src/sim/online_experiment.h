#ifndef HTA_SIM_ONLINE_EXPERIMENT_H_
#define HTA_SIM_ONLINE_EXPERIMENT_H_

#include <vector>

#include "assign/baselines.h"
#include "sim/concurrent_deployment.h"
#include "sim/crowd_sim.h"
#include "sim/worker_gen.h"
#include "util/stats.h"

namespace hta {

/// Configuration of the online-deployment reproduction (Section V-C /
/// Fig. 5). Defaults follow the paper: 20 work sessions per strategy,
/// 30-minute sessions, Xmax = 15 with 5 extra random tasks. The
/// embedded service solves every iteration over rows gathered once
/// from its catalog cache, so per-iteration setup is one O(|sample|)
/// row gather plus the relevance sweep.
struct OnlineExperimentOptions {
  std::vector<StrategyKind> strategies = {
      StrategyKind::kHtaGre, StrategyKind::kHtaGreRel,
      StrategyKind::kHtaGreDiv, StrategyKind::kRandom};
  size_t sessions_per_strategy = 20;
  /// If true, sessions overlap (Poisson arrivals at `arrival_rate`) so
  /// assignment iterations pool multiple workers, as in the paper's
  /// live deployment; if false, sessions run back to back.
  bool concurrent_sessions = false;
  double arrival_rate_per_min = 0.75;
  SessionConfig session;
  CatalogOptions catalog;
  WorkerGenOptions workers;
  AssignmentServiceOptions service;
  uint64_t seed = 1234;

  OnlineExperimentOptions() {
    // A catalog big enough that 20 sessions cannot drain it, shaped
    // like the CrowdFlower set (many kinds, shared group keywords).
    // Iteration samples must be large enough relative to group size
    // that a worker's best-matching group is actually on the table —
    // otherwise the relevance-only strategy cannot express itself.
    catalog.num_groups = 20;
    catalog.tasks_per_group = 200;
    catalog.vocabulary_size = 400;
    workers.count = sessions_per_strategy;
    workers.group_affinity = 1.0;  // Make relevance signal meaningful.
    service.xmax = 15;
    service.extra_random_tasks = 5;
    service.max_tasks_per_iteration = 800;
  }
};

/// Per-strategy minute-binned curves, exactly the series of Fig. 5.
struct StrategyCurves {
  StrategyKind kind = StrategyKind::kHtaGre;
  /// Minute grid 0..max_minutes (inclusive, integer minutes).
  std::vector<double> minutes;
  /// Fig. 5a: cumulative % of questions answered correctly by time x,
  /// pooled over sessions (NaN-free: 0 until the first answer).
  std::vector<double> cumulative_correct_pct;
  /// Fig. 5b: cumulative completed tasks by time x, pooled.
  std::vector<double> cumulative_completed;
  /// Fig. 5c: % of sessions still running at time x.
  std::vector<double> retention_pct;

  // Totals & per-session samples for significance testing.
  size_t total_tasks = 0;
  size_t total_questions = 0;
  size_t total_correct = 0;
  std::vector<double> tasks_per_session;
  std::vector<double> session_duration_minutes;
  double mean_alpha_estimate_end = 0.0;  ///< Final alpha estimates (adaptive).

  // Service-side cost accounting for this strategy's deployment.
  size_t service_iterations = 0;        ///< Assignment iterations run.
  double total_setup_seconds = 0.0;     ///< Summed problem-construction time.
  double total_solve_seconds = 0.0;     ///< Summed iteration time.
  /// Peak simultaneous sessions (DeploymentResult's): 1 when sessions
  /// run back to back.
  size_t max_concurrent_sessions = 1;
};

/// Full experiment output.
struct OnlineExperimentResult {
  std::vector<StrategyCurves> curves;  // Same order as options.strategies.

  /// Finds a strategy's curves; CHECK-fails if absent.
  const StrategyCurves& ForStrategy(StrategyKind kind) const;
};

/// Runs the experiment: for each strategy, a fresh catalog and a
/// one-shard ShardedAssignmentService, the same simulated worker
/// population (identical seeds across strategies for paired
/// comparison), sessions back to back or overlapping per
/// `concurrent_sessions`.
OnlineExperimentResult RunOnlineExperiment(
    const OnlineExperimentOptions& options);

}  // namespace hta

#endif  // HTA_SIM_ONLINE_EXPERIMENT_H_
