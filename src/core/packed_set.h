#ifndef HTA_CORE_PACKED_SET_H_
#define HTA_CORE_PACKED_SET_H_

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/distance.h"
#include "core/keyword_vector.h"
#include "core/task.h"
#include "core/worker.h"
#include "util/check.h"

namespace hta {

/// A whole collection of Boolean keyword vectors stored as a
/// structure-of-arrays bit-matrix: one contiguous buffer of 64-bit
/// blocks, each row padded to a multiple of kBlockPad blocks (padding
/// zero), plus precomputed per-row popcounts.
///
/// This is the substrate of the batched distance kernels: every
/// DistanceKind needs only the intersection popcount of a pair plus the
/// two row counts (union = ca + cb - inter, symmetric difference =
/// ca + cb - 2*inter), so a single unrolled AND-popcount sweep over the
/// padded rows yields any distance, with no pointer chasing through
/// Task/KeywordVector and no per-pair function call.
class PackedSetMatrix {
 public:
  /// Rows are padded to a multiple of this many 64-bit blocks so the
  /// popcount inner loop can be unrolled 4-wide with no tail handling.
  static constexpr size_t kBlockPad = 4;

  PackedSetMatrix() = default;

  /// Packs the keyword vectors of `tasks` (row r = tasks[r].keywords()).
  static PackedSetMatrix FromTasks(const std::vector<Task>& tasks);

  /// Packs the interest vectors of `workers` (row r = interests()).
  static PackedSetMatrix FromWorkers(const std::vector<Worker>& workers);

  /// Packs arbitrary vectors; all must share one universe size.
  static PackedSetMatrix FromVectors(const std::vector<KeywordVector>& vecs);

  /// Gathers `count` rows of `src` (row r = src row rows[r]) into a new
  /// matrix. A straight block copy plus a count copy — bitwise identical
  /// to re-packing the corresponding keyword vectors, with no popcount
  /// recomputation. The engine gathers each iteration's task sample
  /// from the catalog matrix this way (HtaProblem::CreateFromSubset).
  static PackedSetMatrix GatherRows(const PackedSetMatrix& src,
                                    const size_t* rows, size_t count);

  size_t rows() const { return rows_; }
  size_t universe_size() const { return universe_size_; }

  /// Padded blocks per row (a multiple of kBlockPad, or 0 when empty).
  size_t row_blocks() const { return row_blocks_; }

  /// Pointer to the first block of row `r`.
  const uint64_t* row(size_t r) const {
    HTA_DCHECK_LT(r, rows_);
    return blocks_.data() + r * row_blocks_;
  }

  /// Popcount of row `r`.
  uint32_t count(size_t r) const {
    HTA_DCHECK_LT(r, rows_);
    return counts_[r];
  }

 private:
  void PackRow(size_t r, const KeywordVector& v);
  static PackedSetMatrix WithShape(size_t rows, size_t universe_size);

  size_t rows_ = 0;
  size_t universe_size_ = 0;
  size_t row_blocks_ = 0;
  std::vector<uint64_t> blocks_;  // rows_ * row_blocks_ entries.
  std::vector<uint32_t> counts_;  // rows_ entries.
};

namespace packed_internal {

/// |a AND b| over `nb` blocks; nb must be a multiple of kBlockPad (the
/// matrix pads rows, so passing row_blocks() is always valid). Four
/// independent accumulators keep the popcount chain out of the loop's
/// critical path and let the compiler vectorize.
inline size_t IntersectionPopcount(const uint64_t* a, const uint64_t* b,
                                   size_t nb) {
  uint64_t s0 = 0, s1 = 0, s2 = 0, s3 = 0;
  for (size_t k = 0; k < nb; k += 4) {
    s0 += static_cast<uint64_t>(std::popcount(a[k] & b[k]));
    s1 += static_cast<uint64_t>(std::popcount(a[k + 1] & b[k + 1]));
    s2 += static_cast<uint64_t>(std::popcount(a[k + 2] & b[k + 2]));
    s3 += static_cast<uint64_t>(std::popcount(a[k + 3] & b[k + 3]));
  }
  return static_cast<size_t>(s0 + s1 + s2 + s3);
}

/// Intersection popcounts of row `a` against `count` contiguous packed
/// rows starting at `rows` (stride nb blocks): out[r] = |a AND rows_r|.
/// This is the one ISA-sensitive primitive of the batched kernels — the
/// implementation is built once per instruction set (baseline /
/// hardware POPCNT / AVX-512 VPOPCNTQ where the toolchain supports it)
/// and picked on the first call from the CPU's reported features; the
/// result is an exact integer on every path, so kernel outputs never
/// depend on the build that runs.
void IntersectRowCounts(const uint64_t* a, const uint64_t* rows, size_t nb,
                        size_t count, uint32_t* out);

/// j-rows swept per IntersectRowCounts call by the fused emission
/// kernel: big enough to amortize the out-of-line call, small enough
/// that the count buffer lives on the stack.
inline constexpr size_t kCountTile = 256;

/// Distance of a pair from its intersection popcount and the two row
/// counts. Each branch replicates the corresponding function in
/// distance.cc expression-for-expression — same integer intermediates,
/// same double operations in the same order — so the result is
/// bit-identical to VectorDistance for every input pair.
template <DistanceKind K>
inline double DistanceFromCounts(size_t inter, size_t ca, size_t cb,
                                 size_t universe) {
  if constexpr (K == DistanceKind::kJaccard) {
    const size_t uni = ca + cb - inter;
    if (uni == 0) return 0.0;  // Both empty: identical.
    return 1.0 - static_cast<double>(inter) / static_cast<double>(uni);
  } else if constexpr (K == DistanceKind::kDice) {
    if (ca + cb == 0) return 0.0;
    return 1.0 - 2.0 * static_cast<double>(inter) /
                     static_cast<double>(ca + cb);
  } else if constexpr (K == DistanceKind::kHamming) {
    if (universe == 0) return 0.0;
    return static_cast<double>(ca + cb - 2 * inter) /
           static_cast<double>(universe);
  } else {
    static_assert(K == DistanceKind::kCosineAngular);
    if (ca == 0 && cb == 0) return 0.0;
    if (ca == 0 || cb == 0) return 1.0;  // Orthogonal to everything.
    const double cosine = static_cast<double>(inter) /
                          std::sqrt(static_cast<double>(ca) *
                                    static_cast<double>(cb));
    const double clamped = std::clamp(cosine, 0.0, 1.0);
    constexpr double kHalfPi = 1.5707963267948966;
    return std::acos(clamped) / kHalfPi;
  }
}

/// Hoists the DistanceKind switch out of kernel inner loops: invokes
/// `fn` with a std::integral_constant<DistanceKind, K> so the body can
/// instantiate DistanceFromCounts<K> at compile time.
template <typename Fn>
decltype(auto) WithKind(DistanceKind kind, Fn&& fn) {
  switch (kind) {
    case DistanceKind::kJaccard:
      return fn(std::integral_constant<DistanceKind,
                                       DistanceKind::kJaccard>{});
    case DistanceKind::kDice:
      return fn(std::integral_constant<DistanceKind, DistanceKind::kDice>{});
    case DistanceKind::kHamming:
      return fn(
          std::integral_constant<DistanceKind, DistanceKind::kHamming>{});
    case DistanceKind::kCosineAngular:
      return fn(std::integral_constant<DistanceKind,
                                       DistanceKind::kCosineAngular>{});
  }
  HTA_CHECK(false) << "unknown DistanceKind";
  return fn(std::integral_constant<DistanceKind, DistanceKind::kJaccard>{});
}

/// d(row i, row j) of `m` under `kind`: the single-pair form of the
/// batched kernels, bit-identical to PairwiseTaskDiversity over the
/// rows' keyword vectors. d(i, i) == 0.
inline double RowDistance(const PackedSetMatrix& m, DistanceKind kind,
                          size_t i, size_t j) {
  if (i == j) return 0.0;
  return WithKind(kind, [&](auto kind_tag) {
    constexpr DistanceKind K = decltype(kind_tag)::value;
    const size_t inter =
        IntersectionPopcount(m.row(i), m.row(j), m.row_blocks());
    return DistanceFromCounts<K>(inter, m.count(i), m.count(j),
                                 m.universe_size());
  });
}

}  // namespace packed_internal

/// Fills out[i * b.rows() + j] = 1.0 - d(a row i, b row j) — the dense
/// relevance table rel[t][q] when `a` packs tasks and `b` packs worker
/// interests. Requires equal universe sizes. Parallelized over fixed
/// a-row blocks; bit-identical to TaskRelevance at any thread count.
void RectangularRelevance(const PackedSetMatrix& a, const PackedSetMatrix& b,
                          DistanceKind kind, double* out,
                          size_t max_threads = 0);

/// Fused "distance + weight > 0 filter" sweep of one row against all
/// higher-indexed rows: calls emit(j, w) with w = float(d(row i, row
/// j)) for every j > i whose w is positive, in ascending j order. Tiles
/// of kCountTile j-rows go through the per-ISA popcount
/// primitive into a stack buffer; distances derive from the counts and
/// are filtered without ever touching memory. Serial by design —
/// BuildDiversityEdges parallelizes over rows and calls this per row
/// inside its blocks.
template <typename Emit>
inline void EmitPositiveDistancesInRow(const PackedSetMatrix& m, size_t i,
                                       DistanceKind kind, Emit&& emit) {
  packed_internal::WithKind(kind, [&](auto kind_tag) {
    constexpr DistanceKind K = decltype(kind_tag)::value;
    const uint64_t* ri = m.row(i);
    const size_t nb = m.row_blocks();
    const size_t ca = m.count(i);
    const size_t n = m.rows();
    const size_t universe = m.universe_size();
    uint32_t inter[packed_internal::kCountTile];
    for (size_t j0 = i + 1; j0 < n; j0 += packed_internal::kCountTile) {
      const size_t len = std::min(packed_internal::kCountTile, n - j0);
      packed_internal::IntersectRowCounts(ri, m.row(j0), nb, len, inter);
      for (size_t r = 0; r < len; ++r) {
        const float w = static_cast<float>(
            packed_internal::DistanceFromCounts<K>(inter[r], ca,
                                                   m.count(j0 + r),
                                                   universe));
        if (w > 0.0f) emit(j0 + r, w);
      }
    }
  });
}

}  // namespace hta

#endif  // HTA_CORE_PACKED_SET_H_
