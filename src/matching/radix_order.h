#ifndef HTA_MATCHING_RADIX_ORDER_H_
#define HTA_MATCHING_RADIX_ORDER_H_

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

namespace hta {

/// Order-preserving 32-bit image of a weight, inverted so that heavier
/// weights get smaller keys. -0.0f is canonicalized to +0.0f, because
/// a float comparison treats the two as equal.
inline uint32_t HeavierFirstKey(float weight) {
  const uint32_t bits = std::bit_cast<uint32_t>(weight + 0.0f);
  return ~((bits & 0x80000000u) != 0 ? ~bits : bits | 0x80000000u);
}

/// Orders `items` heaviest first by their float `weight` member, and
/// stably: items of equal weight keep their input order. Its users are
/// SolveLsapGreedy's (task, worker) pairs, BuildDiversityEdges' float
/// path (dense-matrix oracles, or more weight classes than it tables),
/// and GreedyMaxWeightMatching's fallback for an edge list that is not
/// already in its order.
///
/// An LSD radix sort on HeavierFirstKey: all four 8-bit digit histograms
/// come from one read pass, a digit with a single bucket is skipped,
/// and each remaining pass scatters between `items` and one
/// uninitialized scratch buffer of items.size() elements, which
/// `*scratch` takes ownership of. The ordered items end up in `items`
/// or in `*scratch`; the returned span points at them.
template <typename T>
std::span<T> RadixOrderByWeight(std::span<T> items,
                                std::unique_ptr<std::byte[]>* scratch) {
  static_assert(std::is_trivially_copyable_v<T>);
  const size_t n = items.size();
  if (n == 0) return items;
  std::array<std::array<size_t, 256>, 4> counts{};
  for (const T& item : items) {
    const uint32_t key = HeavierFirstKey(item.weight);
    for (size_t d = 0; d < 4; ++d) ++counts[d][(key >> (8 * d)) & 0xFF];
  }
  *scratch = std::make_unique_for_overwrite<std::byte[]>(n * sizeof(T));
  T* src = items.data();
  T* dst = reinterpret_cast<T*>(scratch->get());
  for (size_t d = 0; d < 4; ++d) {
    const uint32_t shift = static_cast<uint32_t>(8 * d);
    std::array<size_t, 256>& next = counts[d];
    if (next[(HeavierFirstKey(src[0].weight) >> shift) & 0xFF] == n) continue;
    size_t offset = 0;
    for (size_t& c : next) offset += std::exchange(c, offset);
    for (size_t i = 0; i < n; ++i) {
      const uint32_t digit = (HeavierFirstKey(src[i].weight) >> shift) & 0xFF;
      ::new (dst + next[digit]++) T(src[i]);
    }
    std::swap(src, dst);
  }
  return {src, n};
}

}  // namespace hta

#endif  // HTA_MATCHING_RADIX_ORDER_H_
