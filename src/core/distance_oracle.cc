#include "core/distance_oracle.h"

#include <cmath>
#include <memory>
#include <string>

namespace hta {

TaskDistanceOracle::TaskDistanceOracle(const std::vector<Task>* tasks,
                                       DistanceKind kind)
    : tasks_(tasks), kind_(kind) {
  HTA_CHECK(tasks != nullptr);
}

TaskDistanceOracle TaskDistanceOracle::FromPackedRows(
    std::shared_ptr<const PackedSetMatrix> rows, DistanceKind kind) {
  HTA_CHECK(rows != nullptr);
  return TaskDistanceOracle(std::move(rows), kind);
}

std::shared_ptr<const PackedSetMatrix> TaskDistanceOracle::PackedRows() const {
  if (rows_ != nullptr) return rows_;
  return std::make_shared<const PackedSetMatrix>(
      PackedSetMatrix::FromTasks(*tasks_));
}

Result<TaskDistanceOracle> TaskDistanceOracle::FromDenseMatrix(
    const std::vector<Task>* tasks, DistanceKind kind,
    const std::vector<double>& matrix) {
  HTA_CHECK(tasks != nullptr);
  const size_t n = tasks->size();
  if (matrix.size() != n * n) {
    return Status::InvalidArgument(
        "distance matrix must be |T| x |T| = " + std::to_string(n * n) +
        " entries, got " + std::to_string(matrix.size()));
  }
  for (double d : matrix) {
    // NaN would otherwise fail the symmetry test below under a
    // misleading message, and inf would pass every test.
    if (!std::isfinite(d)) {
      return Status::InvalidArgument("distance matrix entries must be finite");
    }
  }
  for (size_t i = 0; i < n; ++i) {
    if (matrix[i * n + i] != 0.0) {
      return Status::InvalidArgument("distance matrix diagonal must be zero");
    }
    for (size_t j = i + 1; j < n; ++j) {
      if (matrix[i * n + j] != matrix[j * n + i]) {
        return Status::InvalidArgument("distance matrix must be symmetric");
      }
      if (matrix[i * n + j] < 0.0) {
        return Status::InvalidArgument(
            "distance matrix entries must be non-negative");
      }
    }
  }
  TaskDistanceOracle oracle(tasks, kind);
  oracle.matrix_.resize(n >= 2 ? n * (n - 1) / 2 : 0);
  size_t at = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      oracle.matrix_[at++] = static_cast<float>(matrix[i * n + j]);
    }
  }
  return oracle;
}

}  // namespace hta
