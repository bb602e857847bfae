#ifndef HTA_CORE_CATALOG_CACHE_H_
#define HTA_CORE_CATALOG_CACHE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/distance.h"
#include "core/packed_set.h"
#include "core/task.h"
#include "util/check.h"
#include "util/metrics.h"

namespace hta {

namespace catalog_cache_metrics {

/// Distance queries served straight from a published tile. Counted in
/// the inline hot path, so the accessor is header-inline; the counter
/// itself is a function-local static shared across TUs.
inline metrics::Counter& TriHits() {
  static metrics::Counter counter("catalog_cache.tri_hits");
  return counter;
}

}  // namespace catalog_cache_metrics

/// Warm per-catalog caches shared across assignment iterations.
///
/// An online deployment solves one HTA instance per engine iteration
/// over a catalog that never changes, so everything derivable from the
/// catalog alone is computed once here and reused forever:
///
///  * a PackedSetMatrix over every catalog task (the SoA substrate of
///    the batched distance kernels — built eagerly, O(|catalog|));
///  * optionally, a persistent upper-triangular task-distance cache in
///    *double* precision, budget-gated and filled lazily one
///    kTileRows x kTileRows tile at a time on first query. Task x task
///    distances are worker-independent, so a filled tile stays valid
///    for the lifetime of the deployment.
///
/// The cache stores doubles (not the float cache of
/// TaskDistanceOracle::Precomputed) because subset-view solves must be
/// bit-identical to solves over task copies, whose on-the-fly oracle
/// returns full double distances. Every cached value is produced by
/// packed_internal::DistanceFromCounts, which replicates distance.cc
/// expression-for-expression, so a cache hit equals a fresh
/// PairwiseTaskDiversity call bit-for-bit.
///
/// Thread safety: Distance() may be called concurrently from the
/// solver's parallel phases. Tile states are published with
/// release/acquire ordering and fills are serialized by a mutex
/// (double-checked), so readers never observe a partially written tile.
/// Values are pure functions of the catalog, hence independent of fill
/// order and thread count.
class CatalogCache {
 public:
  /// Rows per side of one lazily filled distance tile. Matches the
  /// L1-resident column tiling of AllPairsDistancesUpper.
  static constexpr size_t kTileRows = 128;

  struct Options {
    /// Budget for the triangular double cache; catalogs whose strict
    /// upper triangle exceeds it fall back to computing distances from
    /// the packed rows on every query (0 disables the triangle; the
    /// packed matrix is always built).
    size_t max_distance_cache_bytes = size_t{1} << 30;
  };

  /// Builds the warm cache over `catalog` (not owned; must outlive the
  /// cache). Packs every keyword row eagerly; allocates (but does not
  /// fill) the triangular cache when it fits the budget. The two-arg
  /// overload uses default Options (defined out of line: an in-class
  /// `= Options{}` default argument needs the still-incomplete class).
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

  /// Whether the persistent triangular cache was allocated (budget and
  /// option permitting).
  bool distance_cache_enabled() const { return tri_ != nullptr; }

  /// Tiles filled so far (diagnostic; exact only when quiescent).
  size_t filled_tiles() const;
  size_t tile_count() const { return tile_count_; }

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

  /// d(catalog[i], catalog[j]), bit-identical to PairwiseTaskDiversity.
  /// With the triangular cache enabled, the first query touching a tile
  /// fills that whole tile; later queries are one load.
  double Distance(size_t i, size_t j) const {
    HTA_DCHECK_LT(i, catalog_->size());
    HTA_DCHECK_LT(j, catalog_->size());
    if (i == j) return 0.0;
    if (i > j) std::swap(i, j);
    if (tri_ != nullptr) {
      const size_t tile = (i / kTileRows) * tile_cols_ + j / kTileRows;
      if (tile_state_[tile].load(std::memory_order_acquire) == 0) {
        // Exactly one query performs the fill and counts as the miss
        // (inside FillTile); racers that lose the fill are hits. Hit +
        // fill totals are therefore exact whatever the interleaving.
        if (!FillTile(tile)) catalog_cache_metrics::TriHits().Add();
      } else {
        catalog_cache_metrics::TriHits().Add();
      }
      return tri_[TriIndex(i, j)];
    }
    return ComputeDistance(i, j);
  }

 private:
  /// Packed index into the strict upper triangle (requires i < j);
  /// same layout as TaskDistanceOracle's float cache.
  size_t TriIndex(size_t i, size_t j) const {
    return i * catalog_->size() - i * (i + 1) / 2 + (j - i - 1);
  }

  /// Computes d(i, j) from the packed rows (no cache). i != j.
  double ComputeDistance(size_t i, size_t j) const;

  /// Fills every upper-triangle entry of `tile` and publishes it.
  /// Serialized by fill_mutex_; rechecks the state under the lock.
  /// Returns true when this call performed the fill, false when another
  /// thread published the tile first.
  bool FillTile(size_t tile) const;

  const std::vector<Task>* catalog_;
  DistanceKind kind_;
  PackedSetMatrix packed_;
  size_t tile_cols_ = 0;   // Tile-grid columns: ceil(|catalog| / kTileRows).
  size_t tile_count_ = 0;  // tile_cols_^2 (only the upper wedge is used).
  // Lazily filled triangular cache. make_unique_for_overwrite leaves
  // the pages untouched until a tile fill actually writes them.
  mutable std::unique_ptr<double[]> tri_;
  // 0 = empty, 1 = filled-and-published.
  mutable std::unique_ptr<std::atomic<uint8_t>[]> tile_state_;
  mutable std::mutex fill_mutex_;
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
