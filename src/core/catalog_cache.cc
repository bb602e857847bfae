#include "core/catalog_cache.h"

namespace hta {

CatalogCache::CatalogCache(const std::vector<Task>* catalog, DistanceKind kind)
    : CatalogCache(catalog, kind, Options{}) {}

CatalogCache::CatalogCache(const std::vector<Task>* catalog, DistanceKind kind,
                           Options /*options*/)
    : catalog_(catalog), kind_(kind) {
  HTA_CHECK(catalog != nullptr);
  packed_ = PackedSetMatrix::FromTasks(*catalog);
}

void CatalogCache::FillRelevanceRow(const KeywordVector& interests,
                                    double* out, size_t max_threads) const {
  HTA_CHECK_EQ(interests.universe_size(), packed_.universe_size());
  const PackedSetMatrix one = PackedSetMatrix::FromVectors({interests});
  // rel[t * 1 + 0] = 1 - d(catalog row t, interests row 0): with a
  // single b-row the rectangular kernel's output *is* the row.
  RectangularRelevance(packed_, one, kind_, out, max_threads);
}

}  // namespace hta
