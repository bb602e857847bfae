#ifndef HTA_CORE_CATALOG_CACHE_H_
#define HTA_CORE_CATALOG_CACHE_H_

#include <cstddef>
#include <vector>

#include "core/distance.h"
#include "core/packed_set.h"
#include "core/task.h"
#include "util/check.h"

namespace hta {

/// Warm per-catalog caches shared across assignment iterations.
///
/// An online deployment solves one HTA instance per engine iteration
/// over a catalog that never changes, so the catalog's keyword rows are
/// packed once here (a PackedSetMatrix, the SoA substrate of the
/// batched distance kernels, built eagerly in O(|catalog|)) and reused
/// forever: each iteration's HtaProblem::CreateFromSubset gathers its
/// sample's rows from them once (the problem then owns those rows and
/// sweeps its relevance table over them), and Distance() answers single
/// catalog pairs for the motivation estimator.
///
/// Every distance is produced by packed_internal::RowDistance, which
/// replicates distance.cc expression-for-expression, so Distance()
/// equals a fresh PairwiseTaskDiversity call bit-for-bit. The cache is
/// immutable after construction, so concurrent queries need no
/// synchronization.
class CatalogCache {
 public:
  /// Empty. It and the three-argument constructor exist only because
  /// the end-to-end benchmark harness spells `CatalogCache::Options{}`;
  /// both can go once that call site drops the argument.
  struct Options {};

  /// Builds the warm cache over `catalog` (not owned; must outlive the
  /// cache), packing every keyword row eagerly.
  CatalogCache(const std::vector<Task>* catalog, DistanceKind kind,
               Options options);
  CatalogCache(const std::vector<Task>* catalog, DistanceKind kind);

  CatalogCache(const CatalogCache&) = delete;
  CatalogCache& operator=(const CatalogCache&) = delete;

  const std::vector<Task>& catalog() const { return *catalog_; }
  DistanceKind kind() const { return kind_; }

  /// The packed catalog rows (row r = catalog[r].keywords()).
  const PackedSetMatrix& packed() const { return packed_; }

  /// Fills out[t] = 1 - d(catalog[t], interests) for every catalog
  /// task: one worker's full relevance row. Nothing in the library
  /// calls it; perfbench/serve.cc's core.relevance_row_us probe does.
  /// Runs the batched rectangular relevance kernel over the packed
  /// catalog rows, so the values are bit-identical to TaskRelevance
  /// (and to any RectangularRelevance sweep over a subset of the
  /// catalog) at every `max_threads` cap. `out` must hold
  /// catalog().size() doubles; `interests` must share the catalog's
  /// keyword universe (CHECKed).
  void FillRelevanceRow(const KeywordVector& interests, double* out,
                        size_t max_threads = 0) const;

  /// d(catalog[i], catalog[j]) from the packed rows, bit-identical to
  /// PairwiseTaskDiversity.
  double Distance(size_t i, size_t j) const {
    HTA_DCHECK_LT(i, catalog_->size());
    HTA_DCHECK_LT(j, catalog_->size());
    return packed_internal::RowDistance(packed_, kind_, i, j);
  }

 private:
  const std::vector<Task>* catalog_;
  DistanceKind kind_;
  PackedSetMatrix packed_;
};

}  // namespace hta

#endif  // HTA_CORE_CATALOG_CACHE_H_
