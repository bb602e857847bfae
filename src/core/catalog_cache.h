#ifndef HTA_CORE_CATALOG_CACHE_H_
#define HTA_CORE_CATALOG_CACHE_H_

#include <cstddef>
#include <utility>
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
/// forever: subset views gather their rows from it, relevance rows are
/// swept against it, and Distance() answers single pairs from it.
///
/// Every distance is produced by packed_internal::DistanceFromCounts,
/// which replicates distance.cc expression-for-expression, so
/// Distance() equals a fresh PairwiseTaskDiversity call bit-for-bit.
/// The cache is immutable after construction, so concurrent queries
/// from the solver's parallel phases need no synchronization.
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
  const Task& task(size_t catalog_index) const {
    HTA_DCHECK_LT(catalog_index, catalog_->size());
    return (*catalog_)[catalog_index];
  }
  DistanceKind kind() const { return kind_; }

  /// The packed catalog rows (row r = catalog[r].keywords()).
  const PackedSetMatrix& packed() const { return packed_; }

  /// Fills out[t] = 1 - d(catalog[t], interests) for every catalog
  /// task — one worker's full relevance row, the unit the engine's
  /// SessionRelevanceCache computes once per registration and gathers
  /// from on every later iteration. Runs the batched rectangular
  /// relevance kernel over the already-packed catalog rows, so the
  /// values are bit-identical to TaskRelevance (and to any
  /// RectangularRelevance sweep over a subset of the catalog) at every
  /// `max_threads` cap. `out` must hold catalog().size() doubles;
  /// `interests` must share the catalog's keyword universe.
  void FillRelevanceRow(const KeywordVector& interests, double* out,
                        size_t max_threads = 0) const;

  /// d(catalog[i], catalog[j]) from the packed rows, bit-identical to
  /// PairwiseTaskDiversity.
  double Distance(size_t i, size_t j) const {
    HTA_DCHECK_LT(i, catalog_->size());
    HTA_DCHECK_LT(j, catalog_->size());
    if (i == j) return 0.0;
    return packed_internal::WithKind(kind_, [&](auto kind_tag) {
      constexpr DistanceKind K = decltype(kind_tag)::value;
      const size_t inter = packed_internal::IntersectionPopcount(
          packed_.row(i), packed_.row(j), packed_.row_blocks());
      return packed_internal::DistanceFromCounts<K>(
          inter, packed_.count(i), packed_.count(j), packed_.universe_size());
    });
  }

 private:
  const std::vector<Task>* catalog_;
  DistanceKind kind_;
  PackedSetMatrix packed_;
};

/// A zero-copy view of a subset of a CatalogCache's tasks, addressed by
/// dense local indices 0..size()-1 — the per-iteration task sample of
/// the assignment engine. Holds only the local->catalog index remap (no
/// Task copies), so constructing an HtaProblem from it is O(|sample|)
/// instead of O(|sample| * dictionary).
///
/// The view does not own the cache; both the cache and its catalog must
/// outlive the view, and the view must outlive any TaskDistanceOracle /
/// HtaProblem built on top of it.
class CatalogSubsetView {
 public:
  /// `local_to_catalog[k]` is the catalog index of local task k. The
  /// indices need not be contiguous or sorted (the engine passes its
  /// sampled available set, which is sorted ascending but sparse).
  CatalogSubsetView(const CatalogCache* cache,
                    std::vector<size_t> local_to_catalog)
      : cache_(cache), local_to_catalog_(std::move(local_to_catalog)) {
    HTA_CHECK(cache != nullptr);
#ifndef NDEBUG
    for (size_t c : local_to_catalog_) HTA_DCHECK_LT(c, cache->catalog().size());
#endif
  }

  size_t size() const { return local_to_catalog_.size(); }
  size_t catalog_index(size_t local) const {
    HTA_DCHECK_LT(local, local_to_catalog_.size());
    return local_to_catalog_[local];
  }
  const std::vector<size_t>& catalog_indices() const {
    return local_to_catalog_;
  }
  const Task& task(size_t local) const {
    return cache_->task(catalog_index(local));
  }
  DistanceKind kind() const { return cache_->kind(); }
  const CatalogCache& cache() const { return *cache_; }

  /// d(task(local_i), task(local_j)) through the shared cache.
  double Distance(size_t local_i, size_t local_j) const {
    return cache_->Distance(catalog_index(local_i), catalog_index(local_j));
  }

  /// Gathers the subset's packed rows from the catalog matrix —
  /// bitwise identical to PackedSetMatrix::FromTasks over copies of the
  /// subset's tasks, but a straight row copy with no re-popcounting.
  PackedSetMatrix GatherPackedRows() const {
    return PackedSetMatrix::GatherRows(cache_->packed(),
                                       local_to_catalog_.data(),
                                       local_to_catalog_.size());
  }

 private:
  const CatalogCache* cache_;
  std::vector<size_t> local_to_catalog_;
};

}  // namespace hta

#endif  // HTA_CORE_CATALOG_CACHE_H_
