#include "qap/hta_problem.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>

#include "core/packed_set.h"

namespace hta {

void HtaProblem::FillRelevanceTable(std::vector<double>* rel,
                                    size_t max_threads) const {
  if (!relevance_.empty()) {
    *rel = relevance_;
    return;
  }
  rel->resize(task_count() * worker_count());
  // PackedRows returns a subset problem's own rows (CreateFromSubset
  // sweeps its table through here) and packs the task vector otherwise;
  // rows are bitwise identical either way.
  const std::shared_ptr<const PackedSetMatrix> packed_tasks =
      oracle_.PackedRows();
  const PackedSetMatrix packed_workers =
      PackedSetMatrix::FromWorkers(*workers_);
  RectangularRelevance(*packed_tasks, packed_workers, oracle_.kind(),
                       rel->data(), max_threads);
}

namespace {

/// 0 < x <= DBL_MAX, and false for NaN: the bit patterns of the positive
/// finite doubles are exactly 1 .. 0x7FEFFFFFFFFFFFFF, so one unsigned
/// comparison does the work of std::isfinite plus a positivity test.
/// Create validates every worker on every call, and two std::isfinite
/// branches per worker measurably slowed that call down.
bool IsPositiveFinite(double x) {
  return std::bit_cast<uint64_t>(x) - 1 < 0x7FEFFFFFFFFFFFFFu;
}

}  // namespace

Status HtaProblem::ValidateWorkers(const std::vector<Worker>* workers,
                                   size_t xmax) {
  HTA_CHECK(workers != nullptr);
  if (xmax == 0) {
    return Status::InvalidArgument("xmax must be >= 1");
  }
  if (workers->empty()) {
    return Status::InvalidArgument("HTA needs at least one worker");
  }
  for (const Worker& w : *workers) {
    const auto& mw = w.weights();
    // A NaN or infinite weight makes the sum NaN or infinite.
    if (mw.alpha < 0.0 || mw.beta < 0.0 ||
        !IsPositiveFinite(mw.alpha + mw.beta)) {
      return Status::InvalidArgument(
          "worker weights must be finite and non-negative with a positive "
          "sum");
    }
  }
  return Status::OK();
}

Status HtaProblem::ValidateShape(const std::vector<Task>* tasks,
                                 const std::vector<Worker>* workers,
                                 size_t xmax) {
  HTA_CHECK(tasks != nullptr);
  if (tasks->empty()) {
    return Status::InvalidArgument("HTA needs at least one task");
  }
  return ValidateWorkers(workers, xmax);
}

namespace {

Status CheckMetric(DistanceKind kind, bool allow_non_metric) {
  if (!IsMetric(kind) && !allow_non_metric) {
    return Status::FailedPrecondition(
        "distance kind '" + DistanceKindName(kind) +
        "' is not a metric; HTA approximation guarantees require the "
        "triangle inequality (pass allow_non_metric to override)");
  }
  return Status::OK();
}

}  // namespace

Result<HtaProblem> HtaProblem::Create(const std::vector<Task>* tasks,
                                      const std::vector<Worker>* workers,
                                      size_t xmax, DistanceKind kind,
                                      bool allow_non_metric) {
  HTA_RETURN_IF_ERROR(ValidateShape(tasks, workers, xmax));
  HTA_RETURN_IF_ERROR(CheckMetric(kind, allow_non_metric));
  return HtaProblem(tasks, workers, xmax, TaskDistanceOracle(tasks, kind));
}

Result<HtaProblem> HtaProblem::CreateFromSubset(
    const CatalogCache& cache, std::span<const size_t> catalog_indices,
    const std::vector<Worker>* workers, size_t xmax, bool allow_non_metric,
    size_t max_threads) {
  if (catalog_indices.empty()) {
    return Status::InvalidArgument("HTA needs at least one task");
  }
  HTA_RETURN_IF_ERROR(ValidateWorkers(workers, xmax));
  HTA_RETURN_IF_ERROR(CheckMetric(cache.kind(), allow_non_metric));
  auto rows = std::make_shared<const PackedSetMatrix>(
      PackedSetMatrix::GatherRows(cache.packed(), catalog_indices.data(),
                                  catalog_indices.size()));
  HtaProblem problem(
      /*tasks=*/nullptr, workers, xmax,
      TaskDistanceOracle::FromPackedRows(std::move(rows), cache.kind()));
  std::vector<double> rel;
  problem.FillRelevanceTable(&rel, max_threads);
  problem.relevance_ = std::move(rel);
  return problem;
}

HtaProblem HtaProblem::WithWorkers(const std::vector<Worker>* workers) const {
  HTA_CHECK(workers != nullptr);
  HTA_CHECK_EQ(workers->size(), workers_->size());
  HtaProblem copy(tasks_, workers, xmax_, oracle_);
  copy.relevance_ = relevance_;
  return copy;
}

Result<HtaProblem> HtaProblem::CreateWithMatrices(
    const std::vector<Task>* tasks, const std::vector<Worker>* workers,
    size_t xmax, const std::vector<double>& distances,
    const std::vector<double>& relevance) {
  HTA_RETURN_IF_ERROR(ValidateShape(tasks, workers, xmax));
  if (relevance.size() != tasks->size() * workers->size()) {
    return Status::InvalidArgument(
        "relevance matrix must be |T| x |W| = " +
        std::to_string(tasks->size() * workers->size()) + " entries, got " +
        std::to_string(relevance.size()));
  }
  for (double r : relevance) {
    if (!std::isfinite(r) || r < 0.0 || r > 1.0) {
      return Status::InvalidArgument("relevance entries must be in [0, 1]");
    }
  }
  HTA_ASSIGN_OR_RETURN(
      TaskDistanceOracle oracle,
      TaskDistanceOracle::FromDenseMatrix(tasks, DistanceKind::kJaccard,
                                          distances));
  HtaProblem problem(tasks, workers, xmax, std::move(oracle));
  problem.relevance_ = relevance;
  return problem;
}

}  // namespace hta
