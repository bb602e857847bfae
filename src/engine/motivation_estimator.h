#ifndef HTA_ENGINE_MOTIVATION_ESTIMATOR_H_
#define HTA_ENGINE_MOTIVATION_ESTIMATOR_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/catalog_cache.h"
#include "core/keyword_vector.h"
#include "core/worker.h"

namespace hta {

/// Estimates each worker's (alpha^i_w, beta^i_w) from observed task
/// completions, per Section III ("Task Assignment in Iterations"):
///
/// When worker w completes task t_j from her assigned bundle after
/// already completing {t_1, ..., t_{j-1}} of it, we record
///   * the marginal diversity gain  sum_{k<j} d(t_j, t_k), normalized by
///     the maximum such gain achievable with any still-uncompleted task
///     of the bundle, and
///   * the relevance gain rel(t_j, w), normalized the same way.
/// alpha (resp. beta) is the running average of the normalized diversity
/// (resp. relevance) gains over *all* completions observed so far, and
/// the pair is renormalized to alpha + beta = 1.
///
/// Observations where the normalizer is zero (e.g. the first task of a
/// bundle has no diversity margin, or every remaining task has zero
/// relevance) carry no preference signal and are skipped for that
/// component.
///
/// Tasks are referenced by their index into the catalog of `cache`,
/// which (with its catalog) must outlive the estimator. Distances come
/// from the cache's packed rows; each bundle's relevance is swept once
/// when the bundle begins, so a completion computes no relevance. Both
/// share DistanceFromCounts with PairwiseTaskDiversity and
/// TaskRelevance, so every estimate equals the scalar definition
/// bit-for-bit.
class MotivationEstimator {
 public:
  explicit MotivationEstimator(
      const CatalogCache* cache,
      MotivationWeights prior = MotivationWeights{0.5, 0.5});

  /// Starts a new assigned bundle for the worker (called on each
  /// assignment iteration) and stores rel(t, w) for its tasks, from
  /// the worker's `interests` (which must share the catalog's keyword
  /// universe). Progress within a previous bundle is discarded;
  /// accumulated gain averages persist across bundles.
  void BeginBundle(uint64_t worker_id,
                   const std::vector<size_t>& bundle_catalog_indices,
                   const KeywordVector& interests);

  /// Records that the worker completed `catalog_task`. The task should
  /// belong to the worker's current bundle; unknown tasks are ignored
  /// (workers may complete the extra random tasks the platform displays
  /// alongside the optimized bundle, which carry no bundle-relative
  /// signal).
  void ObserveCompletion(uint64_t worker_id, size_t catalog_task);

  /// Current estimate; the prior if the worker has no usable
  /// observations yet.
  MotivationWeights Estimate(uint64_t worker_id) const;

  /// Number of diversity / relevance observations accumulated.
  size_t DiversityObservationCount(uint64_t worker_id) const;
  size_t RelevanceObservationCount(uint64_t worker_id) const;

 private:
  struct WorkerState {
    std::vector<size_t> bundle;     // Catalog indices of the current bundle.
    std::vector<double> relevance;  // rel(bundle[k], w), swept at begin.
    std::vector<size_t> completed;  // Completed members, in order.
    double diversity_gain_sum = 0.0;
    size_t diversity_gain_count = 0;
    double relevance_gain_sum = 0.0;
    size_t relevance_gain_count = 0;
  };

  const CatalogCache* cache_;
  MotivationWeights prior_;
  std::unordered_map<uint64_t, WorkerState> states_;
};

}  // namespace hta

#endif  // HTA_ENGINE_MOTIVATION_ESTIMATOR_H_
