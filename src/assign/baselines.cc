#include "assign/baselines.h"

#include <algorithm>

#include "util/timer.h"

namespace hta {

std::string StrategyName(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kHtaGre:
      return "hta-gre";
    case StrategyKind::kHtaGreDiv:
      return "hta-gre-div";
    case StrategyKind::kHtaGreRel:
      return "hta-gre-rel";
    case StrategyKind::kRandom:
      return "random";
  }
  return "unknown";
}

Result<HtaSolveResult> SolveWithFixedWeights(const HtaProblem& problem,
                                             MotivationWeights weights,
                                             uint64_t seed, SwapMode swap,
                                             size_t threads) {
  std::vector<Worker> overridden;
  overridden.reserve(problem.worker_count());
  for (const Worker& w : problem.workers()) {
    overridden.emplace_back(w.id(), w.interests(), weights);
  }
  // WithWorkers keeps the task side intact — the same oracle (shared
  // packed rows, dense matrix, or on-the-fly) answers for the override
  // solve, so no per-strategy problem rebuild happens.
  const HtaProblem fixed = problem.WithWorkers(&overridden);
  HtaSolverOptions options;
  options.lsap = LsapMethod::kGreedy;
  options.swap = swap;
  options.seed = seed;
  options.threads = threads;
  HTA_ASSIGN_OR_RETURN(HtaSolveResult result, SolveHta(fixed, options));
  // Report the objective under the *true* worker weights so strategies
  // stay comparable.
  result.stats.motivation = TotalMotivation(problem, result.assignment);
  return result;
}

Result<HtaSolveResult> SolveRandomAssignment(const HtaProblem& problem,
                                             Rng* rng) {
  HTA_CHECK(rng != nullptr);
  WallTimer timer;
  std::vector<TaskIndex> order(problem.task_count());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<TaskIndex>(i);
  }
  rng->Shuffle(&order);

  HtaSolveResult result;
  result.assignment.bundles.assign(problem.worker_count(), {});
  const size_t capacity = problem.worker_count() * problem.xmax();
  const size_t to_assign = std::min(order.size(), capacity);
  for (size_t i = 0; i < to_assign; ++i) {
    result.assignment.bundles[i % problem.worker_count()].push_back(order[i]);
  }
  result.stats.motivation = TotalMotivation(problem, result.assignment);
  result.stats.total_seconds = timer.ElapsedSeconds();
  return result;
}

Result<HtaSolveResult> SolveWithStrategy(const HtaProblem& problem,
                                         StrategyKind kind, uint64_t seed,
                                         Rng* rng, SwapMode swap,
                                         size_t threads) {
  switch (kind) {
    case StrategyKind::kHtaGre: {
      HtaSolverOptions options;
      options.lsap = LsapMethod::kGreedy;
      options.swap = swap;
      options.seed = seed;
      options.threads = threads;
      return SolveHta(problem, options);
    }
    case StrategyKind::kHtaGreDiv:
      return SolveWithFixedWeights(problem, MotivationWeights::DiversityOnly(),
                                   seed, swap, threads);
    case StrategyKind::kHtaGreRel:
      return SolveWithFixedWeights(problem, MotivationWeights::RelevanceOnly(),
                                   seed, swap, threads);
    case StrategyKind::kRandom: {
      HTA_CHECK(rng != nullptr)
          << "random strategy needs an Rng";
      return SolveRandomAssignment(problem, rng);
    }
  }
  return Status::InvalidArgument("unknown strategy");
}

}  // namespace hta
