#ifndef HTA_ASSIGN_ASSIGNMENT_H_
#define HTA_ASSIGN_ASSIGNMENT_H_

#include <vector>

#include "core/motivation.h"
#include "qap/hta_problem.h"
#include "util/status.h"

namespace hta {

/// The output of Problem 1: one task bundle T^i_w per worker, indexed
/// by WorkerIndex. Tasks not appearing in any bundle stay unassigned
/// (and, in the adaptive engine, remain available next iteration).
struct Assignment {
  std::vector<TaskBundle> bundles;

  /// Total number of assigned tasks across all workers.
  size_t AssignedTaskCount() const {
    size_t total = 0;
    for (const auto& b : bundles) total += b.size();
    return total;
  }
};

/// Verifies feasibility against Problem 1's constraints:
///  * one bundle per worker,
///  * every index a valid task,
///  * C1: |T^i_w| <= Xmax for every worker,
///  * C2: bundles pairwise disjoint (each task at most once overall).
Status ValidateAssignment(const HtaProblem& problem,
                          const Assignment& assignment);

/// Expected motivation of worker `worker` for `bundle` (Eq. 3):
///
///   motiv(T', w) = 2 * alpha_w * TD(T') + beta_w * (|T'| - 1) * TR(T', w)
///
/// with TD from the problem's oracle (SetDiversity, Eq. 1) and TR the
/// sum of problem.Relevance(t, worker) over the bundle (Eq. 2) — the
/// instance's own relevance, whether swept, lazily derived from
/// keywords, or given as a matrix (Table I). The 2 and (|T'| - 1)
/// factors normalize the quadratic diversity term against the linear
/// relevance term, following Gollapudi & Sharma. An empty bundle has
/// motivation 0; so does a singleton (|T'| - 1 == 0 and no pairs),
/// matching the paper's formulation. This is the library's one Eq. 3
/// evaluator.
double BundleMotivation(const HtaProblem& problem, WorkerIndex worker,
                        const TaskBundle& bundle);

/// The HTA objective (Problem 1): sum over workers of motiv(T^i_w, w)
/// per Eq. 3, using each worker's own (alpha, beta).
double TotalMotivation(const HtaProblem& problem,
                       const Assignment& assignment);

/// Per-worker motivation values (same order as workers()).
std::vector<double> PerWorkerMotivation(const HtaProblem& problem,
                                        const Assignment& assignment);

}  // namespace hta

#endif  // HTA_ASSIGN_ASSIGNMENT_H_
