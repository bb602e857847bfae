// Test-only reference: the exact HTA solver by exhaustive enumeration.
// Every task is tried in every worker's bundle (capped at Xmax) and
// unassigned, so it certifies the approximation factors of HTA-APP /
// HTA-GRE and the per-solve certificate on tiny instances.
#ifndef HTA_TESTS_REFERENCE_BRUTE_FORCE_HTA_H_
#define HTA_TESTS_REFERENCE_BRUTE_FORCE_HTA_H_

#include <cstddef>
#include <string>
#include <utility>

#include "assign/assignment.h"
#include "util/result.h"

namespace hta::reference {

/// The optimal assignment and its motivation value.
struct BruteForceResult {
  Assignment assignment;
  double motivation = 0.0;
};

namespace brute_force_internal {

struct SearchState {
  const HtaProblem* problem;
  Assignment current;
  Assignment best;
  double best_motivation;
};

/// Assigns task `k` to each worker with spare capacity (or leaves it
/// unassigned) and recurses. The objective is evaluated only at the
/// leaves; instance sizes are tiny by contract.
inline void Search(SearchState* state, size_t k) {
  const HtaProblem& problem = *state->problem;
  if (k == problem.task_count()) {
    const double m = TotalMotivation(problem, state->current);
    if (m > state->best_motivation) {
      state->best_motivation = m;
      state->best = state->current;
    }
    return;
  }
  // Option 1: leave task k unassigned.
  Search(state, k + 1);
  // Option 2: give it to each worker with room.
  for (size_t q = 0; q < problem.worker_count(); ++q) {
    TaskBundle& bundle = state->current.bundles[q];
    if (bundle.size() >= problem.xmax()) continue;
    bundle.push_back(static_cast<TaskIndex>(k));
    Search(state, k + 1);
    bundle.pop_back();
  }
}

}  // namespace brute_force_internal

/// Exponential — (|W| + 1)^|T| states — so it refuses instances with
/// more than 12 tasks or 4 workers.
inline Result<BruteForceResult> SolveHtaBruteForce(const HtaProblem& problem) {
  constexpr size_t kMaxTasks = 12;
  constexpr size_t kMaxWorkers = 4;
  if (problem.task_count() > kMaxTasks ||
      problem.worker_count() > kMaxWorkers) {
    return Status::InvalidArgument(
        "brute force limited to " + std::to_string(kMaxTasks) + " tasks / " +
        std::to_string(kMaxWorkers) + " workers; got " +
        std::to_string(problem.task_count()) + " / " +
        std::to_string(problem.worker_count()));
  }
  brute_force_internal::SearchState state;
  state.problem = &problem;
  state.current.bundles.assign(problem.worker_count(), {});
  state.best = state.current;
  state.best_motivation = 0.0;
  brute_force_internal::Search(&state, 0);
  BruteForceResult result;
  result.assignment = std::move(state.best);
  result.motivation = state.best_motivation;
  return result;
}

}  // namespace hta::reference

#endif  // HTA_TESTS_REFERENCE_BRUTE_FORCE_HTA_H_
