#ifndef HTA_QAP_HTA_PROBLEM_H_
#define HTA_QAP_HTA_PROBLEM_H_

#include <cstddef>
#include <vector>

#include "core/distance_oracle.h"
#include "core/task.h"
#include "core/worker.h"
#include "util/result.h"

namespace hta {

/// One iteration's instance of the Holistic Task Assignment problem
/// (Problem 1): available tasks T^i, available workers W^i with their
/// current (alpha, beta) estimates, the per-worker bundle cap Xmax
/// (constraint C1), and the distance metric.
///
/// Weights: Eq. 3 states alpha + beta = 1, yet the paper's own worked
/// example (Example 1) uses (alpha, beta) = (0.6, 0.3). The objective
/// is well-defined for any finite non-negative weights, so Create only
/// requires finite alpha, beta >= 0 with a positive sum; the adaptive
/// estimator always produces normalized pairs.
///
/// The problem does not own tasks or workers; both must outlive it.
class HtaProblem {
 public:
  /// Builds a problem computing distances/relevance from keyword
  /// vectors. Fails with InvalidArgument if xmax == 0, the task list or
  /// worker list is empty, or weights are invalid; fails with
  /// FailedPrecondition if the distance kind is not a metric (the
  /// approximation guarantees require the triangle inequality; pass
  /// allow_non_metric to experiment anyway).
  static Result<HtaProblem> Create(const std::vector<Task>* tasks,
                                   const std::vector<Worker>* workers,
                                   size_t xmax,
                                   DistanceKind kind = DistanceKind::kJaccard,
                                   bool allow_non_metric = false);

  /// Builds a problem from explicit matrices instead of keyword-derived
  /// values: `distances` is dense row-major |T| x |T| (must be a metric
  /// for the guarantees to hold — not checked beyond finite,
  /// non-negative entries, symmetry and a zero diagonal), `relevance`
  /// is row-major |T| x |W| with entries in [0, 1]. Reproduces setups
  /// like the paper's Table I exactly.
  static Result<HtaProblem> CreateWithMatrices(
      const std::vector<Task>* tasks, const std::vector<Worker>* workers,
      size_t xmax, const std::vector<double>& distances,
      const std::vector<double>& relevance);

  /// Builds a problem over a zero-copy catalog subset view (the warm
  /// path of the online engine): no Task copies, distances resolve
  /// through the view's shared CatalogCache. The |T| x |W| relevance
  /// table is swept once here from the catalog's packed rows (the
  /// kernel FillRelevanceTable runs; `max_threads` caps it, 0 = pool
  /// size), so every later Relevance() and FillRelevanceTable() call
  /// reads it. The view (and its cache/catalog) must outlive the
  /// problem. The metric is the view's kind. Validation matches
  /// Create's.
  static Result<HtaProblem> CreateFromSubset(
      const CatalogSubsetView* view, const std::vector<Worker>* workers,
      size_t xmax, bool allow_non_metric = false, size_t max_threads = 0);

  /// A copy of this problem with the worker list replaced (same tasks,
  /// same oracle — including a shared subset view or dense-matrix
  /// override — same xmax, same relevance table). `workers` must
  /// outlive the copy, have the original worker count and the original
  /// interests (relevance does not depend on alpha/beta); the
  /// fixed-weight baseline strategies use this to re-solve under
  /// overridden weights without rebuilding the task side.
  HtaProblem WithWorkers(const std::vector<Worker>* workers) const;

  const std::vector<Worker>& workers() const { return *workers_; }

  /// The task behind index `t`, in every mode.
  const Task& task(TaskIndex t) const { return oracle_.task(t); }

  size_t task_count() const { return oracle_.task_count(); }
  size_t worker_count() const { return workers_->size(); }
  size_t xmax() const { return xmax_; }
  DistanceKind distance_kind() const { return oracle_.kind(); }

  /// Pairwise-diversity oracle over the problem's tasks (matrix B).
  const TaskDistanceOracle& oracle() const { return oracle_; }

  /// Fills `rel` (resized to task_count() * worker_count(), row-major
  /// rel[t * |W| + q]) with Relevance(t, q) for every pair — the dense
  /// table behind the tabulated LSAP profits and the local-search
  /// bundle cache. A problem that holds a table (matrices or subset)
  /// copies it; otherwise the rectangular SoA relevance kernel computes
  /// the same doubles as TaskRelevance, parallelized over task-row
  /// blocks (`max_threads` caps threads, 0 = pool size).
  void FillRelevanceTable(std::vector<double>* rel,
                          size_t max_threads = 0) const;

  /// rel(t_k, w_q): the held table when present, otherwise derived
  /// from keyword vectors under the problem's metric.
  double Relevance(TaskIndex task, WorkerIndex worker) const {
    if (!relevance_.empty()) {
      return relevance_[static_cast<size_t>(task) * worker_count() + worker];
    }
    return TaskRelevance(oracle_.kind(), oracle_.task(task),
                         (*workers_)[worker]);
  }

 private:
  HtaProblem(const std::vector<Worker>* workers, size_t xmax,
             TaskDistanceOracle oracle)
      : workers_(workers), xmax_(xmax), oracle_(std::move(oracle)) {}

  static Status ValidateShape(const std::vector<Task>* tasks,
                              const std::vector<Worker>* workers, size_t xmax);
  static Status ValidateWorkers(const std::vector<Worker>* workers,
                                size_t xmax);

  const std::vector<Worker>* workers_;
  size_t xmax_;
  TaskDistanceOracle oracle_;
  /// rel[t * |W| + q]: the caller's matrix (CreateWithMatrices) or the
  /// sweep (CreateFromSubset); empty for Create, which stays lazy.
  std::vector<double> relevance_;
};

}  // namespace hta

#endif  // HTA_QAP_HTA_PROBLEM_H_
