#ifndef HTA_QAP_HTA_PROBLEM_H_
#define HTA_QAP_HTA_PROBLEM_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/catalog_cache.h"
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
/// Each problem is the single source of its task rows and its
/// relevance: every consumer (Eq. 3 via BundleMotivation, the LSAP
/// profits, QapView::C, the local search) reads Relevance() /
/// FillRelevanceTable() and oracle(), so an instance never disagrees
/// with itself about what rel(t, w) or d(t, t') is.
///
/// The problem does not own workers, nor the task vector passed to
/// Create / CreateWithMatrices; those must outlive it. A subset problem
/// owns its gathered rows and needs nothing but its workers.
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

  /// Builds a problem over the catalog tasks `catalog_indices` (local
  /// task k = catalog task catalog_indices[k]; any order, repeats
  /// allowed) — the per-iteration sample of the online engine. The
  /// sample's packed rows are gathered from the cache once; the problem
  /// owns them (its oracle answers from them and every WithWorkers copy
  /// shares them), and the |T| x |W| relevance table is swept over them
  /// once here (`max_threads` caps the sweep, 0 = pool size), so every
  /// later Relevance() and FillRelevanceTable() call reads it. No Task
  /// is copied and the cache need not outlive the problem. The metric
  /// is the cache's kind. Validation matches Create's.
  static Result<HtaProblem> CreateFromSubset(
      const CatalogCache& cache, std::span<const size_t> catalog_indices,
      const std::vector<Worker>* workers, size_t xmax,
      bool allow_non_metric = false, size_t max_threads = 0);

  /// A copy of this problem with the worker list replaced (same tasks,
  /// same oracle — including shared packed rows or a dense-matrix
  /// override — same xmax, same relevance table). `workers` must
  /// outlive the copy, have the original worker count and the original
  /// interests (relevance does not depend on alpha/beta); the
  /// fixed-weight baseline strategies use this to re-solve under
  /// overridden weights without rebuilding the task side.
  HtaProblem WithWorkers(const std::vector<Worker>* workers) const;

  const std::vector<Worker>& workers() const { return *workers_; }

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
  /// from keyword vectors under the problem's metric (Create).
  double Relevance(TaskIndex task, WorkerIndex worker) const {
    if (!relevance_.empty()) {
      return relevance_[static_cast<size_t>(task) * worker_count() + worker];
    }
    return TaskRelevance(oracle_.kind(), (*tasks_)[task], (*workers_)[worker]);
  }

 private:
  HtaProblem(const std::vector<Task>* tasks,
             const std::vector<Worker>* workers, size_t xmax,
             TaskDistanceOracle oracle)
      : tasks_(tasks),
        workers_(workers),
        xmax_(xmax),
        oracle_(std::move(oracle)) {}

  static Status ValidateShape(const std::vector<Task>* tasks,
                              const std::vector<Worker>* workers, size_t xmax);
  static Status ValidateWorkers(const std::vector<Worker>* workers,
                                size_t xmax);

  /// The caller's tasks, read by the lazy Relevance() of Create; null
  /// for subset problems.
  const std::vector<Task>* tasks_;
  const std::vector<Worker>* workers_;
  size_t xmax_;
  TaskDistanceOracle oracle_;
  /// rel[t * |W| + q]: the caller's matrix (CreateWithMatrices) or the
  /// sweep (CreateFromSubset); empty for Create, which stays lazy.
  std::vector<double> relevance_;
};

}  // namespace hta

#endif  // HTA_QAP_HTA_PROBLEM_H_
