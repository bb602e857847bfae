#include "core/packed_set.h"

#include "util/parallel.h"

namespace hta {

namespace packed_internal {

namespace {

[[gnu::always_inline]] inline void CountsBody(const uint64_t* a,
                                              const uint64_t* rows, size_t nb,
                                              size_t count, uint32_t* out) {
  for (size_t r = 0; r < count; ++r) {
    const uint64_t* b = rows + r * nb;
    // Single-accumulator reduction: the shape the vectorizer turns into
    // a vpopcntq reduction; nb is a multiple of kBlockPad.
    uint64_t sum = 0;
    for (size_t k = 0; k < nb; ++k) {
      sum += static_cast<uint64_t>(std::popcount(a[k] & b[k]));
    }
    out[r] = static_cast<uint32_t>(sum);
  }
}

using CountsFn = void (*)(const uint64_t*, const uint64_t*, size_t, size_t,
                          uint32_t*);

void CountsBaseline(const uint64_t* a, const uint64_t* rows, size_t nb,
                    size_t count, uint32_t* out) {
  CountsBody(a, rows, nb, count, out);
}

// One build of the sweep per instruction set, picked on the first call
// by what the CPU reports it supports: the baseline x86-64 ABI must
// assume libgcc popcount calls, hardware POPCNT drops that to one
// instruction per block, and AVX-512 VPOPCNTQ lets the inner loop
// vectorize 8 blocks per instruction. Dispatching on features rather
// than on a CPU model matters: GCC resolves target_clones("arch=...")
// by model, and guests that report a generic model (with VPOPCNTDQ)
// never ran the AVX-512 build that way. Every build produces the same
// exact integers, so kernel results do not depend on the choice.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
[[gnu::target("popcnt")]] void CountsPopcnt(const uint64_t* a,
                                            const uint64_t* rows, size_t nb,
                                            size_t count, uint32_t* out) {
  CountsBody(a, rows, nb, count, out);
}

[[gnu::target("popcnt,avx512f,avx512vpopcntdq")]] void CountsVpopcnt(
    const uint64_t* a, const uint64_t* rows, size_t nb, size_t count,
    uint32_t* out) {
  CountsBody(a, rows, nb, count, out);
}

CountsFn ResolveCounts() {
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512vpopcntdq")) return CountsVpopcnt;
  if (__builtin_cpu_supports("popcnt")) return CountsPopcnt;
  return CountsBaseline;
}
#else
CountsFn ResolveCounts() { return CountsBaseline; }
#endif

}  // namespace

void IntersectRowCounts(const uint64_t* a, const uint64_t* rows, size_t nb,
                        size_t count, uint32_t* out) {
  static const CountsFn counts = ResolveCounts();
  counts(a, rows, nb, count, out);
}

}  // namespace packed_internal

namespace {

/// Row grain of the rectangular relevance sweep: fixed blocks of this
/// many a-rows form the partition ParallelFor distributes.
constexpr size_t kRowGrain = 16;

}  // namespace

PackedSetMatrix PackedSetMatrix::WithShape(size_t rows,
                                           size_t universe_size) {
  PackedSetMatrix m;
  m.rows_ = rows;
  m.universe_size_ = universe_size;
  const size_t blocks = (universe_size + 63) / 64;
  m.row_blocks_ = (blocks + kBlockPad - 1) / kBlockPad * kBlockPad;
  m.blocks_.assign(rows * m.row_blocks_, 0);
  m.counts_.assign(rows, 0);
  return m;
}

void PackedSetMatrix::PackRow(size_t r, const KeywordVector& v) {
  HTA_DCHECK_EQ(v.universe_size(), universe_size_);
  const std::vector<uint64_t>& src = v.blocks();
  uint64_t* dst = blocks_.data() + r * row_blocks_;
  uint32_t count = 0;
  for (size_t k = 0; k < src.size(); ++k) {
    dst[k] = src[k];
    count += static_cast<uint32_t>(std::popcount(src[k]));
  }
  counts_[r] = count;
}

PackedSetMatrix PackedSetMatrix::FromTasks(const std::vector<Task>& tasks) {
  PackedSetMatrix m = WithShape(
      tasks.size(), tasks.empty() ? 0 : tasks[0].keywords().universe_size());
  for (size_t r = 0; r < tasks.size(); ++r) {
    m.PackRow(r, tasks[r].keywords());
  }
  return m;
}

PackedSetMatrix PackedSetMatrix::FromWorkers(
    const std::vector<Worker>& workers) {
  PackedSetMatrix m = WithShape(
      workers.size(),
      workers.empty() ? 0 : workers[0].interests().universe_size());
  for (size_t r = 0; r < workers.size(); ++r) {
    m.PackRow(r, workers[r].interests());
  }
  return m;
}

PackedSetMatrix PackedSetMatrix::GatherRows(const PackedSetMatrix& src,
                                            const size_t* rows,
                                            size_t count) {
  PackedSetMatrix m = WithShape(count, src.universe_size());
  HTA_DCHECK_EQ(m.row_blocks_, src.row_blocks_);
  for (size_t r = 0; r < count; ++r) {
    HTA_DCHECK_LT(rows[r], src.rows());
    std::copy_n(src.row(rows[r]), src.row_blocks_,
                m.blocks_.data() + r * m.row_blocks_);
    m.counts_[r] = src.counts_[rows[r]];
  }
  return m;
}

PackedSetMatrix PackedSetMatrix::FromVectors(
    const std::vector<KeywordVector>& vecs) {
  PackedSetMatrix m =
      WithShape(vecs.size(), vecs.empty() ? 0 : vecs[0].universe_size());
  for (size_t r = 0; r < vecs.size(); ++r) {
    m.PackRow(r, vecs[r]);
  }
  return m;
}

void RectangularRelevance(const PackedSetMatrix& a, const PackedSetMatrix& b,
                          DistanceKind kind, double* out,
                          size_t max_threads) {
  if (a.rows() == 0 || b.rows() == 0) return;
  HTA_DCHECK_EQ(a.universe_size(), b.universe_size());
  const size_t cols = b.rows();
  packed_internal::WithKind(kind, [&](auto kind_tag) {
    constexpr DistanceKind K = decltype(kind_tag)::value;
    const size_t nb = a.row_blocks();
    const size_t universe = a.universe_size();
    ParallelFor(
        0, a.rows(), kRowGrain,
        [&](size_t row_begin, size_t row_end) {
          // The b side is one contiguous run of rows, so each a-row
          // takes a single sweep; the count buffer is per block, sized
          // to the worker set (typically |W| << |T|).
          std::vector<uint32_t> inter(cols);
          for (size_t i = row_begin; i < row_end; ++i) {
            const uint64_t* ri = a.row(i);
            const size_t ca = a.count(i);
            double* row_out = out + i * cols;
            packed_internal::IntersectRowCounts(ri, b.row(0), nb, cols,
                                                inter.data());
            for (size_t j = 0; j < cols; ++j) {
              row_out[j] =
                  1.0 - packed_internal::DistanceFromCounts<K>(
                            inter[j], ca, b.count(j), universe);
            }
          }
        },
        max_threads);
  });
}

}  // namespace hta
