#include "core/catalog_cache.h"

#include <algorithm>

namespace hta {

namespace {

metrics::Counter& TileFills() {
  static metrics::Counter* counter =
      new metrics::Counter("catalog_cache.tile_fills");
  return *counter;
}

metrics::Counter& UncachedComputes() {
  static metrics::Counter* counter =
      new metrics::Counter("catalog_cache.uncached_computes");
  return *counter;
}

}  // namespace

CatalogCache::CatalogCache(const std::vector<Task>* catalog, DistanceKind kind)
    : CatalogCache(catalog, kind, Options{}) {}

CatalogCache::CatalogCache(const std::vector<Task>* catalog, DistanceKind kind,
                           Options options)
    : catalog_(catalog), kind_(kind) {
  HTA_CHECK(catalog != nullptr);
  packed_ = PackedSetMatrix::FromTasks(*catalog);
  const size_t n = catalog->size();
  if (n < 2) return;
  const size_t pairs = n * (n - 1) / 2;
  // Budget check by division: `pairs * sizeof(double)` can wrap size_t
  // for large n and then wrongly pass the comparison.
  if (pairs > options.max_distance_cache_bytes / sizeof(double)) return;
  tile_cols_ = (n + kTileRows - 1) / kTileRows;
  tile_count_ = tile_cols_ * tile_cols_;
  tri_ = std::make_unique_for_overwrite<double[]>(pairs);
  // Value-initialized: every tile starts empty.
  tile_state_ = std::make_unique<std::atomic<uint8_t>[]>(tile_count_);
}

void CatalogCache::FillRelevanceRow(const KeywordVector& interests,
                                    double* out, size_t max_threads) const {
  HTA_CHECK_EQ(interests.universe_size(), packed_.universe_size());
  const PackedSetMatrix one = PackedSetMatrix::FromVectors({interests});
  // rel[t * 1 + 0] = 1 - d(catalog row t, interests row 0): with a
  // single b-row the rectangular kernel's output *is* the row.
  RectangularRelevance(packed_, one, kind_, out, max_threads);
}

size_t CatalogCache::filled_tiles() const {
  if (tile_state_ == nullptr) return 0;
  size_t filled = 0;
  for (size_t t = 0; t < tile_count_; ++t) {
    if (tile_state_[t].load(std::memory_order_acquire) != 0) ++filled;
  }
  return filled;
}

double CatalogCache::ComputeDistance(size_t i, size_t j) const {
  UncachedComputes().Add();
  return packed_internal::WithKind(kind_, [&](auto kind_tag) {
    constexpr DistanceKind K = decltype(kind_tag)::value;
    const size_t inter = packed_internal::IntersectionPopcount(
        packed_.row(i), packed_.row(j), packed_.row_blocks());
    return packed_internal::DistanceFromCounts<K>(
        inter, packed_.count(i), packed_.count(j), packed_.universe_size());
  });
}

bool CatalogCache::FillTile(size_t tile) const {
  std::lock_guard<std::mutex> lock(fill_mutex_);
  // Double-checked: another thread may have published the tile while
  // this one waited on the mutex.
  if (tile_state_[tile].load(std::memory_order_relaxed) != 0) return false;
  TileFills().Add();
  const size_t n = catalog_->size();
  const size_t row_lo = (tile / tile_cols_) * kTileRows;
  const size_t col_lo = (tile % tile_cols_) * kTileRows;
  const size_t row_hi = std::min(row_lo + kTileRows, n);
  const size_t col_hi = std::min(col_lo + kTileRows, n);
  packed_internal::WithKind(kind_, [&](auto kind_tag) {
    constexpr DistanceKind K = decltype(kind_tag)::value;
    const size_t nb = packed_.row_blocks();
    const size_t universe = packed_.universe_size();
    uint32_t inter[kTileRows];
    for (size_t i = row_lo; i < row_hi; ++i) {
      const size_t j_lo = std::max(col_lo, i + 1);
      if (j_lo >= col_hi) continue;
      packed_internal::IntersectRowCounts(packed_.row(i), packed_.row(j_lo),
                                          nb, col_hi - j_lo, inter);
      double* seg = tri_.get() + TriIndex(i, j_lo);
      const size_t ca = packed_.count(i);
      for (size_t j = j_lo; j < col_hi; ++j) {
        seg[j - j_lo] = packed_internal::DistanceFromCounts<K>(
            inter[j - j_lo], ca, packed_.count(j), universe);
      }
    }
  });
  // Publish: every write above happens-before a reader's acquire load.
  tile_state_[tile].store(1, std::memory_order_release);
  return true;
}

}  // namespace hta
