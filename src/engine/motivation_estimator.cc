#include "engine/motivation_estimator.h"

#include <algorithm>

#include "util/check.h"

namespace hta {

MotivationEstimator::MotivationEstimator(const CatalogCache* cache,
                                         MotivationWeights prior)
    : cache_(cache), prior_(prior) {
  HTA_CHECK(cache != nullptr);
}

void MotivationEstimator::BeginBundle(
    uint64_t worker_id, const std::vector<size_t>& bundle_catalog_indices,
    const KeywordVector& interests) {
  const PackedSetMatrix& catalog_rows = cache_->packed();
  HTA_CHECK_EQ(interests.universe_size(), catalog_rows.universe_size());
  WorkerState& state = states_[worker_id];
  state.bundle = bundle_catalog_indices;
  state.completed.clear();
  // One |bundle| x 1 sweep: rel[k] = 1 - d(catalog row bundle[k],
  // interests), the kernel the solver's relevance table runs.
  const PackedSetMatrix rows = PackedSetMatrix::GatherRows(
      catalog_rows, state.bundle.data(), state.bundle.size());
  state.relevance.resize(state.bundle.size());
  RectangularRelevance(rows, PackedSetMatrix::FromVectors({interests}),
                       cache_->kind(), state.relevance.data(),
                       /*max_threads=*/1);
}

void MotivationEstimator::ObserveCompletion(uint64_t worker_id,
                                            size_t catalog_task) {
  HTA_CHECK_LT(catalog_task, cache_->catalog().size());
  auto it = states_.find(worker_id);
  if (it == states_.end()) return;
  WorkerState& state = it->second;
  const auto pos =
      std::find(state.bundle.begin(), state.bundle.end(), catalog_task);
  if (pos == state.bundle.end()) {
    return;  // Not part of the optimized bundle: no signal.
  }
  const auto is_completed = [&](size_t t) {
    return std::find(state.completed.begin(), state.completed.end(), t) !=
           state.completed.end();
  };
  if (is_completed(catalog_task)) {
    return;  // Duplicate completion notification.
  }

  // Each component is normalized by its maximum over the bundle tasks
  // the worker could have chosen instead (T^{i-1}_w minus the completed
  // ones; includes catalog_task).
  double gain = 0.0;
  for (size_t prev : state.completed) {
    gain += cache_->Distance(catalog_task, prev);
  }
  double max_gain = 0.0;
  double max_rel = 0.0;
  for (size_t k = 0; k < state.bundle.size(); ++k) {
    const size_t candidate = state.bundle[k];
    if (is_completed(candidate)) continue;
    double g = 0.0;
    for (size_t prev : state.completed) g += cache_->Distance(candidate, prev);
    max_gain = std::max(max_gain, g);
    max_rel = std::max(max_rel, state.relevance[k]);
  }
  // Diversity component: marginal gain over the completed prefix.
  if (max_gain > 0.0) {
    state.diversity_gain_sum += gain / max_gain;
    ++state.diversity_gain_count;
  }
  // Relevance component.
  if (max_rel > 0.0) {
    state.relevance_gain_sum +=
        state.relevance[static_cast<size_t>(pos - state.bundle.begin())] /
        max_rel;
    ++state.relevance_gain_count;
  }

  state.completed.push_back(catalog_task);
}

MotivationWeights MotivationEstimator::Estimate(uint64_t worker_id) const {
  auto it = states_.find(worker_id);
  if (it == states_.end()) return prior_;
  const WorkerState& state = it->second;
  if (state.diversity_gain_count == 0 && state.relevance_gain_count == 0) {
    return prior_;
  }
  const double alpha_raw =
      state.diversity_gain_count > 0
          ? state.diversity_gain_sum /
                static_cast<double>(state.diversity_gain_count)
          : prior_.alpha;
  const double beta_raw =
      state.relevance_gain_count > 0
          ? state.relevance_gain_sum /
                static_cast<double>(state.relevance_gain_count)
          : prior_.beta;
  return MotivationWeights::Normalized(alpha_raw, beta_raw);
}

size_t MotivationEstimator::DiversityObservationCount(
    uint64_t worker_id) const {
  auto it = states_.find(worker_id);
  return it == states_.end() ? 0 : it->second.diversity_gain_count;
}

size_t MotivationEstimator::RelevanceObservationCount(
    uint64_t worker_id) const {
  auto it = states_.find(worker_id);
  return it == states_.end() ? 0 : it->second.relevance_gain_count;
}

}  // namespace hta
