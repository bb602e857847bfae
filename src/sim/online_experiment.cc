#include "sim/online_experiment.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace hta {

const StrategyCurves& OnlineExperimentResult::ForStrategy(
    StrategyKind kind) const {
  for (const auto& c : curves) {
    if (c.kind == kind) return c;
  }
  HTA_CHECK(false) << "strategy " << StrategyName(kind) << " not in result";
  return curves.front();  // Unreachable.
}

namespace {

StrategyCurves BuildCurves(StrategyKind kind,
                           const std::vector<SessionResult>& sessions,
                           double max_minutes) {
  StrategyCurves c;
  c.kind = kind;
  const size_t bins = static_cast<size_t>(std::ceil(max_minutes)) + 1;
  c.minutes.resize(bins);
  for (size_t b = 0; b < bins; ++b) c.minutes[b] = static_cast<double>(b);

  std::vector<double> correct(bins, 0.0);
  std::vector<double> questions(bins, 0.0);
  std::vector<double> completed(bins, 0.0);
  for (const SessionResult& s : sessions) {
    c.tasks_per_session.push_back(static_cast<double>(s.tasks_completed()));
    c.session_duration_minutes.push_back(s.duration_minutes);
    c.total_tasks += s.tasks_completed();
    c.total_questions += s.questions_total();
    c.total_correct += s.questions_correct();
    for (const CompletionEvent& e : s.events) {
      const size_t bin = std::min(
          bins - 1, static_cast<size_t>(std::ceil(e.session_minute)));
      correct[bin] += e.correct;
      questions[bin] += e.questions;
      completed[bin] += 1.0;
    }
  }

  c.cumulative_correct_pct.resize(bins, 0.0);
  c.cumulative_completed.resize(bins, 0.0);
  c.retention_pct.resize(bins, 0.0);
  double cum_correct = 0.0;
  double cum_questions = 0.0;
  double cum_completed = 0.0;
  for (size_t b = 0; b < bins; ++b) {
    cum_correct += correct[b];
    cum_questions += questions[b];
    cum_completed += completed[b];
    c.cumulative_correct_pct[b] =
        cum_questions > 0.0 ? 100.0 * cum_correct / cum_questions : 0.0;
    c.cumulative_completed[b] = cum_completed;
    size_t alive = 0;
    for (const SessionResult& s : sessions) {
      if (s.duration_minutes >= static_cast<double>(b)) ++alive;
    }
    c.retention_pct[b] = sessions.empty()
                             ? 0.0
                             : 100.0 * static_cast<double>(alive) /
                                   static_cast<double>(sessions.size());
  }
  return c;
}

}  // namespace

OnlineExperimentResult RunOnlineExperiment(
    const OnlineExperimentOptions& options) {
  OnlineExperimentResult result;
  Rng master(options.seed);

  for (StrategyKind kind : options.strategies) {
    // Fresh catalog and service per strategy (identical seeds: the same
    // tasks), so strategies face the same marketplace.
    auto catalog_or = GenerateCatalog(options.catalog);
    HTA_CHECK(catalog_or.ok()) << catalog_or.status();
    const Catalog& catalog = *catalog_or;

    WorkerGenOptions worker_options = options.workers;
    worker_options.count = options.sessions_per_strategy;
    auto workers_or = GenerateWorkers(worker_options, catalog);
    HTA_CHECK(workers_or.ok()) << workers_or.status();

    ShardedServiceOptions service_options;
    service_options.service = options.service;
    service_options.service.strategy = kind;
    service_options.service.metric = DistanceKind::kJaccard;
    ShardedAssignmentService service(&catalog.tasks, service_options);

    // Same behavioral workers across strategies: parameters and
    // behavior streams derive from the master seed and session index
    // only.
    std::vector<BehavioralWorker> behavioral;
    behavioral.reserve(options.sessions_per_strategy);
    for (size_t s = 0; s < options.sessions_per_strategy; ++s) {
      Rng param_rng(options.seed ^ (0x9e3779b97f4a7c15ULL * (s + 1)));
      const BehaviorParams params = SampleBehaviorParams(&param_rng);
      behavioral.emplace_back(&catalog.tasks, DistanceKind::kJaccard,
                              (*workers_or)[s], params, param_rng.Fork(17));
    }

    DeploymentResult run;
    if (options.concurrent_sessions) {
      ConcurrentDeploymentOptions deployment;
      deployment.arrival_rate_per_min = options.arrival_rate_per_min;
      deployment.session = options.session;
      deployment.seed = options.seed + 101;
      run = RunConcurrentDeployment(&service, catalog, &behavioral,
                                    deployment);
    } else {
      run = RunSequentialDeployment(&service, catalog, &behavioral,
                                    options.session);
    }

    StrategyCurves curves =
        BuildCurves(kind, run.sessions, options.session.max_minutes);
    if (kind == StrategyKind::kHtaGre && !run.sessions.empty()) {
      double alpha_sum = 0.0;
      for (const SessionResult& session : run.sessions) {
        alpha_sum += service.CurrentWeights(session.worker_id).alpha;
      }
      curves.mean_alpha_estimate_end =
          alpha_sum / static_cast<double>(run.sessions.size());
    }
    curves.max_concurrent_sessions = run.max_concurrent_sessions;
    curves.service_iterations = run.iterations;
    curves.total_setup_seconds = run.total_setup_seconds;
    curves.total_solve_seconds = run.total_solve_seconds;
    result.curves.push_back(std::move(curves));
  }
  return result;
}

}  // namespace hta
