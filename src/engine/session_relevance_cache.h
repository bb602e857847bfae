#ifndef HTA_ENGINE_SESSION_RELEVANCE_CACHE_H_
#define HTA_ENGINE_SESSION_RELEVANCE_CACHE_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/catalog_cache.h"
#include "core/keyword_vector.h"

namespace hta {

/// Persistent per-session relevance rows over a fixed catalog.
///
/// A worker's interests never change within a session, and relevance
/// rel(t, w) = 1 - d(t.keywords, w.interests) is independent of the
/// motivation weights (alpha, beta only multiply relevance *downstream*
/// — in QapView::C, the tabulated LSAP profits, and the Eq. 3 objective
/// — as scalar factors). So the full rel[w][catalog] row can be
/// computed once at registration with the batched rectangular kernel
/// and served to every later iteration by subset gather: weight-
/// estimate churn never invalidates a row, and the per-iteration
/// rectangular popcount sweep disappears from matching profits, LSAP
/// tabulation, and BundleStatsCache construction.
///
/// Every stored value comes from the same DistanceFromCounts arithmetic
/// as a fresh RectangularRelevance sweep (and as scalar TaskRelevance),
/// so gathered tables are bit-identical to a per-iteration sweep at any
/// thread cap — a deployment with a zero row budget reproduces one with
/// rows cached.
///
/// Rows cost catalog_size * sizeof(double) bytes each; a byte budget
/// caps the total. Sessions past the budget are simply not cached
/// (AddSession is a no-op and GatherTable reports a miss), degrading to
/// the per-iteration sweep instead of evicting warm rows.
///
/// Single-threaded by design, like the AssignmentService that owns it.
class SessionRelevanceCache {
 public:
  /// `cache` supplies the packed catalog rows and metric (not owned;
  /// must outlive this object). `max_bytes` bounds the sum of row
  /// payloads.
  SessionRelevanceCache(const CatalogCache* cache, size_t max_bytes);

  /// Computes and stores the session's full relevance row (one batched
  /// catalog x 1 sweep). Skipped when the byte budget is exhausted.
  /// `max_threads` caps the kernel's pool draw (0 = full pool); the row
  /// is bit-identical at every cap. Re-registering an id overwrites.
  void AddSession(uint64_t worker_id, const KeywordVector& interests,
                  size_t max_threads = 0);

  /// Frees the session's row (no-op when absent or never cached).
  void RemoveSession(uint64_t worker_id);

  bool Contains(uint64_t worker_id) const {
    return rows_.find(worker_id) != rows_.end();
  }

  /// The session's full catalog row (rel[t] at catalog index t), or
  /// nullptr when the session is not cached.
  const double* Row(uint64_t worker_id) const;

  /// Gathers the dense row-major table rel[t * |W| + q] for the given
  /// catalog subset x worker list — exactly the layout
  /// HtaProblem::FillRelevanceTable produces. Returns false (leaving
  /// `out` untouched) when any worker lacks a cached row, so callers
  /// fall back to the fresh sweep.
  bool GatherTable(const std::vector<size_t>& catalog_indices,
                   const std::vector<uint64_t>& worker_ids,
                   std::vector<double>* out) const;

  size_t session_count() const { return rows_.size(); }
  size_t bytes_used() const { return bytes_used_; }
  size_t max_bytes() const { return max_bytes_; }

 private:
  const CatalogCache* cache_;
  size_t max_bytes_;
  size_t bytes_used_ = 0;
  std::unordered_map<uint64_t, std::unique_ptr<double[]>> rows_;
};

}  // namespace hta

#endif  // HTA_ENGINE_SESSION_RELEVANCE_CACHE_H_
