#ifndef HTA_ASSIGN_LOCAL_SEARCH_H_
#define HTA_ASSIGN_LOCAL_SEARCH_H_

#include <vector>

#include "assign/assignment.h"
#include "util/result.h"

namespace hta {

/// Local-search refinement of a feasible HTA assignment (an extension
/// beyond the paper): starting from any feasible assignment — typically
/// HTA-GRE's — repeatedly apply improving moves until a local optimum
/// or the pass budget is reached. Never decreases the objective, always
/// preserves feasibility (C1/C2), so approximation guarantees of the
/// seed assignment carry over.
///
/// Move neighborhood:
///  * replace  — swap an assigned task with an unassigned one (same
///               bundle position);
///  * exchange — swap two tasks between two workers' bundles;
///  * insert   — append an unassigned task to a bundle with spare
///               capacity.
///
/// Each pass scans the neighborhood deterministically: for every bundle
/// slot, all candidates are probed concurrently on the global thread
/// pool and the *best* improving candidate is applied (ties broken by
/// lowest candidate index, folded in ascending fixed-block order per
/// util/parallel.h), then the scan advances to the next slot. Deltas
/// come from BundleStatsCache in O(1). The selected moves — and
/// therefore the final assignment — are bit-identical for every
/// HTA_THREADS setting and every `threads` cap.

struct LocalSearchOptions {
  /// Full passes over the neighborhood before giving up.
  size_t max_passes = 8;
  /// Caps the threads drawn from the global pool by the scan and the
  /// incremental-table updates (0 = whole pool, 1 = serial). Any value
  /// produces bit-identical results.
  size_t threads = 0;
};

struct LocalSearchResult {
  Assignment assignment;
  double motivation = 0.0;       ///< Eq. 3 objective after refinement.
  double initial_motivation = 0.0;
  /// Sum of the evaluator-reported deltas of every applied move, so
  /// initial_motivation + applied_delta is the incrementally tracked
  /// objective. With HTA_AUDIT=1 the AssignmentAuditor asserts it
  /// against a from-scratch recompute after every pass — the
  /// stale-delta detector for the incremental tables.
  double applied_delta = 0.0;
  size_t improving_moves = 0;
  /// Applied insert moves, including the zero-delta capacity fills that
  /// don't count as improving. For a warm-started solve seeded from a
  /// partial carry-over assignment this is the number of bundle holes
  /// patched from the fresh sample (engine.warm_start.repaired_slots).
  size_t inserts_applied = 0;
  size_t passes = 0;             ///< Passes actually executed.
  bool reached_local_optimum = false;
};

/// Refines `initial` for `problem`. Fails with the validator's error if
/// the initial assignment is infeasible.
Result<LocalSearchResult> ImproveAssignment(const HtaProblem& problem,
                                            const Assignment& initial,
                                            const LocalSearchOptions& options);

/// Incremental per-bundle statistics that make every local-search move
/// evaluation O(1) instead of O(Xmax)–O(Xmax²):
///
///  * div_sum[q][t] — Σ_{m ∈ bundle(q)} d(t, m) for *every* candidate
///    task t, so a replace/insert diversity delta is two table reads
///    plus at most one oracle call;
///  * the bundle's internal diversity and relevance sums, so an insert
///    delta needs no BundleMotivation() evaluation at all;
///  * a dense rel[t][q] relevance cache, so no probe ever recomputes a
///    task–worker distance.
///
/// Tables are built once in O(|T|·|W|·Xmax) and updated in O(|T|) per
/// *applied* move (probes leave them untouched). The cache mutates the
/// externally owned assignment through ApplyReplace/ApplyInsert; all
/// bundle mutations must flow through those methods or the tables go
/// stale. Delta probes are pure reads and safe to issue concurrently;
/// Apply* must be called from one thread at a time.
class BundleStatsCache {
 public:
  /// Builds tables for `assignment` (not owned; must outlive the
  /// cache). `max_threads` caps the pool threads used by construction
  /// and by Apply* table updates; every value yields bit-identical
  /// tables. The rel[t][q] fill is one batched rectangular sweep.
  BundleStatsCache(const HtaProblem& problem, Assignment* assignment,
                   size_t max_threads = 0);

  /// Objective change from replacing `worker`'s bundle member at `pos`
  /// with task `in` (which must not currently be in that bundle).
  double ReplaceDelta(WorkerIndex worker, size_t pos, TaskIndex in) const;

  /// Objective change from swapping bundles[q1][p1] with
  /// bundles[q2][p2] (q1 != q2).
  double ExchangeDelta(WorkerIndex q1, size_t p1, WorkerIndex q2,
                       size_t p2) const;

  /// Objective change from appending `in` (not currently in any
  /// position of `worker`'s bundle) to `worker`'s bundle.
  double InsertDelta(WorkerIndex worker, TaskIndex in) const;

  /// Applies the move to the assignment and updates all tables in
  /// O(|T|).
  void ApplyReplace(WorkerIndex worker, size_t pos, TaskIndex in);
  void ApplyInsert(WorkerIndex worker, TaskIndex in);

  /// The Eq. 3 objective derived purely from the maintained per-bundle
  /// sums: Σ_q 2·α_q·bundle_div_[q] + β_q·(|T_q|-1)·bundle_rel_[q].
  /// Audited against the from-scratch recompute (HTA_AUDIT=1), which
  /// makes stale bundle_div_/bundle_rel_ maintenance observable.
  double CachedTotalMotivation() const;

  /// Table accessors (exposed for tests).
  double DiversityToBundle(WorkerIndex worker, TaskIndex t) const {
    return div_sum_[static_cast<size_t>(worker) * task_count_ + t];
  }
  double BundleDiversity(WorkerIndex worker) const {
    return bundle_div_[worker];
  }
  double BundleRelevance(WorkerIndex worker) const {
    return bundle_rel_[worker];
  }
  double Relevance(TaskIndex t, WorkerIndex worker) const {
    return rel_[static_cast<size_t>(t) * worker_count_ + worker];
  }

 private:
  const HtaProblem* problem_;
  Assignment* assignment_;
  size_t max_threads_;
  size_t task_count_;
  size_t worker_count_;
  std::vector<double> rel_;         // [t * |W| + q] = rel(t, q).
  std::vector<double> div_sum_;     // [q * |T| + t] = Σ_m d(t, m).
  std::vector<double> bundle_div_;  // [q] = Σ pairs d within bundle q.
  std::vector<double> bundle_rel_;  // [q] = Σ members rel(m, q).
};

}  // namespace hta

#endif  // HTA_ASSIGN_LOCAL_SEARCH_H_
