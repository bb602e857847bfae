#ifndef HTA_CORE_DISTANCE_ORACLE_H_
#define HTA_CORE_DISTANCE_ORACLE_H_

#include <memory>
#include <utility>
#include <vector>

#include "core/distance.h"
#include "core/packed_set.h"
#include "core/task.h"
#include "util/result.h"

namespace hta {

/// Answers pairwise-task-diversity queries d(t_k, t_l) over a fixed task
/// set — the (implicit) matrix B of the MAXQAP mapping (Eq. 5).
///
/// Distances come from one of two sources:
///  * keyword rows — each query computes the distance from the tasks'
///                  keyword bits (O(R/64) popcounts), either from a task
///                  vector or from packed rows the oracle shares
///                  (FromPackedRows: the per-iteration sample the
///                  engine gathers once from its catalog cache). Both
///                  give bit-identical answers for the same tasks.
///  * a caller-supplied matrix — FromDenseMatrix stores the strict upper
///                  triangle as floats (externally defined metrics, the
///                  paper's Table I).
///
/// The oracle pins the DistanceKind so every component of one experiment
/// agrees on the metric.
class TaskDistanceOracle {
 public:
  /// Keyword oracle over `tasks` (not owned; must outlive the oracle).
  TaskDistanceOracle(const std::vector<Task>* tasks, DistanceKind kind);

  /// Builds an oracle from an explicit dense row-major |T| x |T|
  /// distance matrix instead of computing distances from keywords. The
  /// paper allows d() to be any metric; this entry point lets callers
  /// plug externally-defined distances (it also reproduces the paper's
  /// worked example, whose Table I values are given, not derived).
  /// Fails unless the entries are finite and non-negative and the
  /// matrix is symmetric with a zero diagonal. `kind` is recorded for
  /// the relevance side.
  static Result<TaskDistanceOracle> FromDenseMatrix(
      const std::vector<Task>* tasks, DistanceKind kind,
      const std::vector<double>& matrix);

  /// Packed-rows oracle over `rows` (row r = task r), shared with every
  /// copy of the oracle. Queries answer from the rows with the same
  /// popcount kernel as CatalogCache::Distance.
  static TaskDistanceOracle FromPackedRows(
      std::shared_ptr<const PackedSetMatrix> rows, DistanceKind kind);

  /// d(t_i, t_j). Requires i, j < task_count(). d(i, i) == 0.
  double operator()(TaskIndex i, TaskIndex j) const {
    if (i == j) return 0.0;
    if (rows_ != nullptr) {
      return packed_internal::RowDistance(*rows_, kind_, i, j);
    }
    if (!matrix_.empty()) return matrix_[TriIndex(i, j)];
    return PairwiseTaskDiversity(kind_, (*tasks_)[i], (*tasks_)[j]);
  }

  size_t task_count() const {
    return rows_ != nullptr ? rows_->rows() : tasks_->size();
  }
  DistanceKind kind() const { return kind_; }

  /// Whether distances come from a caller-supplied matrix
  /// (FromDenseMatrix) rather than from keyword rows. Batched kernels
  /// must not bypass such a matrix.
  bool has_dense_matrix() const { return !matrix_.empty(); }

  /// The oracle's task rows as a packed SoA matrix: the held rows in
  /// packed-rows mode (no copy), packed from the task vector otherwise.
  /// Rows are bitwise identical either way, so batched kernels run
  /// unchanged on top.
  std::shared_ptr<const PackedSetMatrix> PackedRows() const;

 private:
  TaskDistanceOracle(std::shared_ptr<const PackedSetMatrix> rows,
                     DistanceKind kind)
      : tasks_(nullptr), kind_(kind), rows_(std::move(rows)) {}

  /// Packed index into the strict upper triangle (i < j).
  size_t TriIndex(TaskIndex i, TaskIndex j) const {
    if (i > j) std::swap(i, j);
    const size_t n = tasks_->size();
    const size_t si = i;
    const size_t sj = j;
    // Row i starts after all previous rows: i*n - i*(i+1)/2, offset j-i-1.
    return si * n - si * (si + 1) / 2 + (sj - si - 1);
  }

  const std::vector<Task>* tasks_;
  DistanceKind kind_;
  std::vector<float> matrix_;  // Upper triangle; empty unless dense-matrix.
  /// Null outside packed-rows mode.
  std::shared_ptr<const PackedSetMatrix> rows_;
};

}  // namespace hta

#endif  // HTA_CORE_DISTANCE_ORACLE_H_
