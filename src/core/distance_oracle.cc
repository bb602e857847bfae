#include "core/distance_oracle.h"

#include <string>

namespace hta {

TaskDistanceOracle::TaskDistanceOracle(const std::vector<Task>* tasks,
                                       DistanceKind kind)
    : tasks_(tasks), kind_(kind) {
  HTA_CHECK(tasks != nullptr);
}

Result<TaskDistanceOracle> TaskDistanceOracle::Precomputed(
    const std::vector<Task>* tasks, DistanceKind kind, size_t max_cache_bytes,
    size_t max_threads) {
  HTA_CHECK(tasks != nullptr);
  const size_t n = tasks->size();
  const size_t pairs = n * (n - 1) / 2;
  // Budget check by division: `pairs * sizeof(float)` can wrap size_t
  // for large n and then wrongly pass the comparison.
  if (pairs > max_cache_bytes / sizeof(float)) {
    return Status::ResourceExhausted(
        "precomputed distance cache for " + std::to_string(n) +
        " tasks needs " + std::to_string(pairs) + " float entries > limit " +
        std::to_string(max_cache_bytes) + " bytes");
  }
  TaskDistanceOracle oracle(tasks, kind);
  oracle.cache_.resize(pairs);
  // The batched SoA sweep fills the triangular layout tiled for cache
  // residency; every row writes a disjoint segment, so the cache is
  // bit-identical for any thread count.
  const PackedSetMatrix packed = PackedSetMatrix::FromTasks(*tasks);
  AllPairsDistancesUpper(packed, kind, oracle.cache_.data(), max_threads);
  return oracle;
}

TaskDistanceOracle TaskDistanceOracle::FromSharedCache(
    const CatalogSubsetView* view) {
  HTA_CHECK(view != nullptr);
  return TaskDistanceOracle(view);
}

PackedSetMatrix TaskDistanceOracle::PackedRows() const {
  if (view_ != nullptr) return view_->GatherPackedRows();
  return PackedSetMatrix::FromTasks(*tasks_);
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
  oracle.cache_.resize(n >= 2 ? n * (n - 1) / 2 : 0);
  size_t at = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      oracle.cache_[at++] = static_cast<float>(matrix[i * n + j]);
    }
  }
  return oracle;
}

}  // namespace hta
