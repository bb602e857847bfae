#ifndef HTA_ASSIGN_AUDITOR_H_
#define HTA_ASSIGN_AUDITOR_H_

#include "assign/assignment.h"
#include "qap/hta_problem.h"
#include "util/status.h"

namespace hta {

/// Runtime validation of solver and local-search output.
///
/// The incremental machinery introduced by the parallel compute layer
/// and the O(1)-delta local search (BundleStatsCache, tabulated LSAP
/// profits, disjoint-write parallel fills) maintains the Eq. 3
/// objective by accumulating hand-derived deltas instead of
/// recomputing it — exactly the code shape where a stale table or a
/// silently racing fill produces plausible-looking but wrong output.
/// The auditor is the independent check: it re-derives everything the
/// paper's guarantees rest on (the C1/C2 feasibility constraints of
/// Eq. 4–6 and the Eq. 3 objective itself) from nothing but the
/// problem and the emitted bundles, and reports the first violated
/// invariant as a structured Status.
///
/// Auditing is wired after every HTA-APP / HTA-GRE solve, after every
/// local-search pass, and after every engine iteration, gated on
/// AuditEnabled() (the HTA_AUDIT environment variable; ctest forces it
/// on for the whole suite). One audit costs one from-scratch objective
/// evaluation, O(|W| · Xmax²) oracle calls — negligible next to the
/// solve it validates.
class AssignmentAuditor {
 public:
  /// Agreement tolerance between a claimed (incrementally maintained)
  /// objective and the from-scratch recompute, relative to
  /// max(1, |recomputed|).
  static constexpr double kObjectiveTolerance = 1e-9;

  /// The problem must outlive the auditor.
  explicit AssignmentAuditor(const HtaProblem& problem)
      : problem_(&problem) {}

  /// Checks the structural invariants of Problem 1 in a fixed order and
  /// returns the first violation:
  ///  * matching validity — exactly one bundle per worker
  ///    (InvalidArgument);
  ///  * index validity — every bundle entry names an existing task
  ///    (OutOfRange);
  ///  * C1 — |T^i_w| <= Xmax for every worker (FailedPrecondition);
  ///  * C2 — no task appears twice, within or across bundles
  ///    (FailedPrecondition, naming both holders).
  Status CheckStructure(const Assignment& assignment) const;

  /// Recomputes the Eq. 3 objective from scratch — per-bundle
  /// BundleMotivation() over problem.Relevance(), the evaluators the
  /// tests' naive move deltas (tests/reference/) use too — and checks
  /// that `claimed_objective` (an incrementally maintained value such
  /// as initial + Σ applied deltas, or a BundleStatsCache-derived
  /// total) agrees within kObjectiveTolerance. Divergence, including NaN,
  /// returns Internal.
  Status CheckObjective(const Assignment& assignment,
                        double claimed_objective) const;

  /// CheckStructure, then CheckObjective.
  Status Audit(const Assignment& assignment, double claimed_objective) const;

 private:
  const HtaProblem* problem_;
};

/// True when runtime auditing is enabled: HTA_AUDIT parses to a nonzero
/// integer. Read once at first call and latched, like the thread-pool
/// size. The ctest harness sets HTA_AUDIT=1 on every registered test,
/// so the whole suite always runs audited.
bool AuditEnabled();

}  // namespace hta

#endif  // HTA_ASSIGN_AUDITOR_H_
