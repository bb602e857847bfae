// Test-only reference: the from-scratch move evaluators that
// BundleStatsCache's incremental tables replace. The local-search
// equivalence tests, the audit differential test and the delta-kernel
// micro benches compare the cached deltas against them.
#ifndef HTA_TESTS_REFERENCE_NAIVE_DELTAS_H_
#define HTA_TESTS_REFERENCE_NAIVE_DELTAS_H_

#include <cstddef>

#include "assign/assignment.h"
#include "qap/hta_problem.h"

namespace hta::reference {

/// Motivation change of replacing bundle[pos] with `in` for `worker`.
/// O(|bundle|) oracle calls.
inline double NaiveReplaceDelta(const HtaProblem& problem,
                                const TaskBundle& bundle, size_t pos,
                                TaskIndex in, WorkerIndex worker) {
  const TaskIndex out = bundle[pos];
  const Worker& w = problem.workers()[worker];
  const TaskDistanceOracle& d = problem.oracle();
  double diversity_delta = 0.0;
  for (size_t m = 0; m < bundle.size(); ++m) {
    if (m == pos) continue;
    diversity_delta += d(in, bundle[m]) - d(out, bundle[m]);
  }
  const double relevance_delta =
      problem.Relevance(in, worker) - problem.Relevance(out, worker);
  const double size_minus_one = static_cast<double>(bundle.size()) - 1.0;
  return 2.0 * w.weights().alpha * diversity_delta +
         w.weights().beta * size_minus_one * relevance_delta;
}

/// Motivation change of appending `in` to `worker`'s bundle: two full
/// BundleMotivation() evaluations plus a bundle copy, O(|bundle|²).
inline double NaiveInsertDelta(const HtaProblem& problem,
                               const TaskBundle& bundle, TaskIndex in,
                               WorkerIndex worker) {
  const double before = BundleMotivation(problem, worker, bundle);
  TaskBundle grown = bundle;
  grown.push_back(in);
  const double after = BundleMotivation(problem, worker, grown);
  return after - before;
}

}  // namespace hta::reference

#endif  // HTA_TESTS_REFERENCE_NAIVE_DELTAS_H_
