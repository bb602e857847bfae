#include "assign/assignment.h"

#include <string>

namespace hta {

Status ValidateAssignment(const HtaProblem& problem,
                          const Assignment& assignment) {
  if (assignment.bundles.size() != problem.worker_count()) {
    return Status::InvalidArgument(
        "assignment has " + std::to_string(assignment.bundles.size()) +
        " bundles for " + std::to_string(problem.worker_count()) +
        " workers");
  }
  std::vector<bool> used(problem.task_count(), false);
  for (size_t q = 0; q < assignment.bundles.size(); ++q) {
    const TaskBundle& bundle = assignment.bundles[q];
    if (bundle.size() > problem.xmax()) {
      return Status::FailedPrecondition(
          "C1 violated: worker " + std::to_string(q) + " has " +
          std::to_string(bundle.size()) + " tasks > Xmax " +
          std::to_string(problem.xmax()));
    }
    for (TaskIndex t : bundle) {
      if (static_cast<size_t>(t) >= problem.task_count()) {
        return Status::OutOfRange("bundle contains invalid task index " +
                                  std::to_string(t));
      }
      if (used[t]) {
        return Status::FailedPrecondition(
            "C2 violated: task " + std::to_string(t) +
            " assigned more than once");
      }
      used[t] = true;
    }
  }
  return Status::OK();
}

double BundleMotivation(const HtaProblem& problem, WorkerIndex worker,
                        const TaskBundle& bundle) {
  if (bundle.empty()) return 0.0;
  const double td = SetDiversity(bundle, problem.oracle());
  double tr = 0.0;
  for (TaskIndex t : bundle) {
    HTA_DCHECK_LT(static_cast<size_t>(t), problem.task_count());
    tr += problem.Relevance(t, worker);
  }
  const MotivationWeights& weights = problem.workers()[worker].weights();
  const double size_minus_one = static_cast<double>(bundle.size()) - 1.0;
  return 2.0 * weights.alpha * td + weights.beta * size_minus_one * tr;
}

double TotalMotivation(const HtaProblem& problem,
                       const Assignment& assignment) {
  double total = 0.0;
  for (double m : PerWorkerMotivation(problem, assignment)) total += m;
  return total;
}

std::vector<double> PerWorkerMotivation(const HtaProblem& problem,
                                        const Assignment& assignment) {
  HTA_CHECK_EQ(assignment.bundles.size(), problem.worker_count());
  std::vector<double> out(problem.worker_count(), 0.0);
  for (size_t q = 0; q < problem.worker_count(); ++q) {
    out[q] = BundleMotivation(problem, static_cast<WorkerIndex>(q),
                              assignment.bundles[q]);
  }
  return out;
}

}  // namespace hta
