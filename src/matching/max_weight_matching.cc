#include "matching/max_weight_matching.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <optional>
#include <span>

#include "matching/radix_order.h"
#include "util/check.h"
#include "util/parallel.h"

namespace hta {

namespace {

/// Rows per shard when building the diversity edge list in parallel.
constexpr size_t kEdgeRowGrain = 16;

/// Largest class table BuildDiversityEdges builds. Past it (many
/// distinct row popcounts), or past one entry per pair, evaluating the
/// table costs more than the sort it saves, and the per-block class
/// histograms grow with it.
constexpr size_t kMaxClassTableEntries = size_t{1} << 12;

bool EdgeHeavier(const WeightedEdge& a, const WeightedEdge& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

/// The greedy's strict order on radix keys. A list sorted by it is one
/// the radix path leaves exactly as it is.
bool KeyedBefore(uint32_t key_a, const WeightedEdge& a, uint32_t key_b,
                 const WeightedEdge& b) {
  if (key_a != key_b) return key_a < key_b;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

GraphMatching MakeEmptyMatching(size_t vertex_count) {
  GraphMatching m;
  m.mate.assign(vertex_count, GraphMatching::kUnmatched);
  return m;
}

void AddMatchedEdge(GraphMatching* m, VertexId u, VertexId v, double w) {
  m->mate[u] = static_cast<int32_t>(v);
  m->mate[v] = static_cast<int32_t>(u);
  m->edges.emplace_back(std::min(u, v), std::max(u, v));
  m->total_weight += w;
}

/// The greedy step for the next edge of the strict order; returns the
/// number of vertices it covered (0 or 2).
size_t TakeIfFree(GraphMatching* m, const WeightedEdge& e) {
  HTA_DCHECK_LT(static_cast<size_t>(e.u), m->mate.size());
  HTA_DCHECK_LT(static_cast<size_t>(e.v), m->mate.size());
  if (e.u == e.v || m->mate[e.u] != GraphMatching::kUnmatched ||
      m->mate[e.v] != GraphMatching::kUnmatched) {
    return 0;
  }
  AddMatchedEdge(m, e.u, e.v, e.weight);
  return 2;
}

/// The greedy scan of a list that is already in the strict order, with
/// the order check fused in. Returns false, leaving `*m` partly filled,
/// at the first edge out of order. Once fewer than two vertices are
/// free no edge can be taken, but the rest is still checked: an edge
/// out of order there would have been taken earlier.
bool ScanIfOrdered(std::span<const WeightedEdge> edges, size_t vertex_count,
                   GraphMatching* m) {
  if (edges.empty()) return true;
  size_t free_vertices = vertex_count - TakeIfFree(m, edges[0]);
  uint32_t prev_key = HeavierFirstKey(edges[0].weight);
  for (size_t k = 1; k < edges.size(); ++k) {
    const uint32_t key = HeavierFirstKey(edges[k].weight);
    if (KeyedBefore(key, edges[k], prev_key, edges[k - 1])) return false;
    prev_key = key;
    if (free_vertices >= 2) {
      free_vertices -= TakeIfFree(m, edges[k]);
    }
  }
  return true;
}

/// Rows [b, e) of an n-row upper triangle hold sum_{i=b}^{e-1} (n-1-i)
/// pairs.
size_t BlockPairs(size_t n, parallel_internal::BlockRange rows) {
  return (rows.end - rows.begin) * (n - 1) -
         (rows.end * (rows.end - 1) / 2 - rows.begin * (rows.begin - 1) / 2);
}

/// Uninitialized storage for one block's edges, written through a bump
/// pointer: at kernel throughput, the value-initializing memset of
/// vector::resize and the capacity checks of push_back both cost more
/// than the distance sweep itself.
template <typename Edge>
struct RawShard {
  std::unique_ptr<std::byte[]> bytes;
  size_t count = 0;

  void Allocate(size_t capacity) {
    bytes =
        std::make_unique_for_overwrite<std::byte[]>(capacity * sizeof(Edge));
  }
  void Put(size_t at, const Edge& e) {
    ::new (bytes.get() + at * sizeof(Edge)) Edge(e);
  }
  const Edge* data() const {
    return reinterpret_cast<const Edge*>(bytes.get());
  }
};

/// The weight classes of an oracle's positive distances. Every
/// DistanceKind is a function of (|a|, |b|, |a AND b|), so one table
/// entry per (count of row i, count of row j, intersection) triple
/// gives a pair's class with no arithmetic. Classes are numbered 1..K
/// by weight, heaviest first; class 0 marks a weight that is not
/// positive.
struct DistanceClasses {
  size_t count_values = 0;           ///< |C|, the distinct row popcounts.
  std::vector<uint32_t> col_offset;  ///< Per row: idx(count) * (maxc + 1).
  std::vector<uint32_t> table;       ///< Class of each (ca, cb, inter).
  std::vector<float> weights;        ///< weights[c]: the weight of class c.

  size_t class_count() const { return weights.size() - 1; }
  /// Row i's slice of the table; index it by col_offset[j] + inter.
  const uint32_t* RowTable(size_t i) const {
    return table.data() + size_t{col_offset[i]} * count_values;
  }
};

/// Builds the class table of `m`'s rows, or nothing when it would have
/// more than kMaxClassTableEntries entries or more entries than `pairs`.
/// Each entry's weight is DistanceFromCounts on the arguments the
/// per-pair kernel passes, so class weights are the kernel's floats.
std::optional<DistanceClasses> ClassifyDistances(const PackedSetMatrix& m,
                                                 DistanceKind kind,
                                                 size_t pairs) {
  const size_t n = m.rows();
  uint32_t max_count = 0;
  for (size_t r = 0; r < n; ++r) max_count = std::max(max_count, m.count(r));
  const size_t stride = size_t{max_count} + 1;
  if (stride > kMaxClassTableEntries) return std::nullopt;
  constexpr uint32_t kAbsent = std::numeric_limits<uint32_t>::max();
  std::vector<uint32_t> index_of(stride, kAbsent);
  for (size_t r = 0; r < n; ++r) index_of[m.count(r)] = 0;
  std::vector<uint32_t> counts;
  for (uint32_t c = 0; c <= max_count; ++c) {
    if (index_of[c] == kAbsent) continue;
    index_of[c] = static_cast<uint32_t>(counts.size());
    counts.push_back(c);
  }
  const size_t entries = counts.size() * counts.size() * stride;
  if (entries > std::min(kMaxClassTableEntries, pairs)) return std::nullopt;

  std::vector<float> entry_weight(entries, 0.0f);
  std::vector<uint32_t> keys;
  packed_internal::WithKind(kind, [&](auto kind_tag) {
    constexpr DistanceKind K = decltype(kind_tag)::value;
    for (size_t a = 0; a < counts.size(); ++a) {
      for (size_t b = 0; b < counts.size(); ++b) {
        const size_t base = (a * counts.size() + b) * stride;
        for (uint32_t inter = 0; inter <= std::min(counts[a], counts[b]);
             ++inter) {
          const float w = static_cast<float>(
              packed_internal::DistanceFromCounts<K>(
                  inter, counts[a], counts[b], m.universe_size()));
          if (w > 0.0f) {
            entry_weight[base + inter] = w;
            keys.push_back(HeavierFirstKey(w));
          }
        }
      }
    }
  });
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  DistanceClasses classes;
  classes.count_values = counts.size();
  classes.table.assign(entries, 0);
  classes.weights.assign(keys.size() + 1, 0.0f);
  for (size_t e = 0; e < entries; ++e) {
    const float w = entry_weight[e];
    if (!(w > 0.0f)) continue;
    const size_t cls =
        std::lower_bound(keys.begin(), keys.end(), HeavierFirstKey(w)) -
        keys.begin() + 1;
    classes.table[e] = static_cast<uint32_t>(cls);
    classes.weights[cls] = w;
  }
  classes.col_offset.resize(n);
  for (size_t r = 0; r < n; ++r) {
    classes.col_offset[r] =
        static_cast<uint32_t>(index_of[m.count(r)] * stride);
  }
  return classes;
}

/// A swept pair before its class is turned into a weight.
struct ClassedEdge {
  VertexId u;
  VertexId v;
  uint32_t cls;
};

/// The class-ordered build. Each fixed block of rows sweeps its pairs
/// once, writing (i, j, class) row-major into a raw shard and counting
/// a class histogram; then, while the shard is still in cache, a
/// counting scatter orders it by class and writes the real weights.
/// The blocks concatenate class-major, block-minor, so within a class
/// edges stay in (u asc, v asc) order at any thread count.
std::vector<WeightedEdge> BuildClassOrderedEdges(
    const PackedSetMatrix& packed, const DistanceClasses& classes,
    size_t max_threads) {
  const size_t n = packed.rows();
  const size_t num_blocks = parallel_internal::BlockCount(0, n, kEdgeRowGrain);
  const size_t num_classes = classes.class_count();
  std::vector<RawShard<WeightedEdge>> shards(num_blocks);
  // histograms[block][c]: the block's edges of class c (c = 0 counts
  // the pairs that are not edges).
  std::vector<std::vector<size_t>> histograms(num_blocks);
  ParallelFor(
      0, num_blocks, /*grain=*/1,
      [&](size_t block) {
        const parallel_internal::BlockRange rows =
            parallel_internal::BlockAt(0, n, kEdgeRowGrain, block);
        RawShard<ClassedEdge> raw;
        raw.Allocate(BlockPairs(n, rows));
        std::vector<size_t>& histogram = histograms[block];
        histogram.assign(num_classes + 1, 0);
        const size_t nb = packed.row_blocks();
        uint32_t inter[packed_internal::kCountTile];
        for (size_t i = rows.begin; i < rows.end; ++i) {
          const uint32_t* row_table = classes.RowTable(i);
          for (size_t j0 = i + 1; j0 < n; j0 += packed_internal::kCountTile) {
            const size_t len = std::min(packed_internal::kCountTile, n - j0);
            packed_internal::IntersectRowCounts(packed.row(i), packed.row(j0),
                                                nb, len, inter);
            const uint32_t* col_offset = classes.col_offset.data() + j0;
            for (size_t r = 0; r < len; ++r) {
              const uint32_t cls = row_table[col_offset[r] + inter[r]];
              ++histogram[cls];
              if (cls != 0) {
                raw.Put(raw.count++,
                        ClassedEdge{static_cast<VertexId>(i),
                                    static_cast<VertexId>(j0 + r), cls});
              }
            }
          }
        }
        std::vector<size_t> next(num_classes + 1, 0);
        for (size_t c = 1, offset = 0; c <= num_classes; ++c) {
          next[c] = offset;
          offset += histogram[c];
        }
        RawShard<WeightedEdge>& shard = shards[block];
        shard.Allocate(raw.count);
        shard.count = raw.count;
        for (const ClassedEdge& e : std::span(raw.data(), raw.count)) {
          shard.Put(next[e.cls]++,
                    WeightedEdge{e.u, e.v, classes.weights[e.cls]});
        }
      },
      max_threads);
  size_t total = 0;
  for (const auto& shard : shards) total += shard.count;
  std::vector<WeightedEdge> edges;
  edges.reserve(total);
  std::vector<size_t> cursor(num_blocks, 0);
  for (size_t c = 1; c <= num_classes; ++c) {
    for (size_t block = 0; block < num_blocks; ++block) {
      const WeightedEdge* segment = shards[block].data() + cursor[block];
      edges.insert(edges.end(), segment, segment + histograms[block][c]);
      cursor[block] += histograms[block][c];
    }
  }
  return edges;
}

/// The float build, for dense-matrix oracles and class tables past the
/// cap: each block writes the positive edges `emit_row(i, emit)` yields
/// for its rows, the blocks concatenate row-major, and one stable radix
/// sort orders the list by weight.
template <typename EmitRow>
std::vector<WeightedEdge> BuildWeightOrderedEdges(size_t n, size_t max_threads,
                                                  const EmitRow& emit_row) {
  const size_t num_blocks = parallel_internal::BlockCount(0, n, kEdgeRowGrain);
  std::vector<RawShard<WeightedEdge>> shards(num_blocks);
  ParallelFor(
      0, num_blocks, /*grain=*/1,
      [&](size_t block) {
        const parallel_internal::BlockRange rows =
            parallel_internal::BlockAt(0, n, kEdgeRowGrain, block);
        RawShard<WeightedEdge>& shard = shards[block];
        shard.Allocate(BlockPairs(n, rows));
        for (size_t i = rows.begin; i < rows.end; ++i) {
          emit_row(i, [&](size_t j, float w) {
            shard.Put(shard.count++,
                      WeightedEdge{static_cast<VertexId>(i),
                                   static_cast<VertexId>(j), w});
          });
        }
      },
      max_threads);
  size_t total = 0;
  for (const auto& shard : shards) total += shard.count;
  std::vector<WeightedEdge> edges;
  edges.reserve(total);
  for (const auto& shard : shards) {
    edges.insert(edges.end(), shard.data(), shard.data() + shard.count);
  }
  std::unique_ptr<std::byte[]> scratch;
  const std::span<WeightedEdge> ordered =
      RadixOrderByWeight(std::span<WeightedEdge>(edges), &scratch);
  if (ordered.data() != edges.data()) {
    std::copy(ordered.begin(), ordered.end(), edges.begin());
  }
  return edges;
}

}  // namespace

GraphMatching GreedyMaxWeightMatching(size_t vertex_count,
                                      std::vector<WeightedEdge> edges,
                                      size_t /*max_threads*/) {
  GraphMatching m = MakeEmptyMatching(vertex_count);
  if (ScanIfOrdered(edges, vertex_count, &m)) return m;
  m = MakeEmptyMatching(vertex_count);
  const size_t n = edges.size();
  std::unique_ptr<std::byte[]> scratch;
  WeightedEdge* const src =
      RadixOrderByWeight(std::span<WeightedEdge>(edges), &scratch).data();
  // Each run of equal weights now holds its edges in input order;
  // sorting a run by (u, v) where that order differs yields exactly the
  // EdgeHeavier order. Runs are fixed lazily, just before they are
  // scanned, and the scan stops once no two vertices are free.
  size_t free_vertices = vertex_count;
  for (size_t begin = 0; begin < n && free_vertices >= 2;) {
    const uint32_t key = HeavierFirstKey(src[begin].weight);
    size_t end = begin + 1;
    while (end < n && HeavierFirstKey(src[end].weight) == key) ++end;
    if (!std::is_sorted(src + begin, src + end, EdgeHeavier)) {
      std::sort(src + begin, src + end, EdgeHeavier);
    }
    for (; begin < end; ++begin) {
      free_vertices -= TakeIfFree(&m, src[begin]);
    }
  }
  return m;
}

std::vector<WeightedEdge> BuildDiversityEdges(const TaskDistanceOracle& d,
                                              size_t max_threads) {
  const size_t n = d.task_count();
  if (n < 2) return {};
  // Padding vertices have zero weight to everything and can never
  // enter a maximum-weight matching built from positive edges, so only
  // real task pairs are scanned.
  if (d.has_dense_matrix()) {
    // The caller's matrix defines the distances; the keyword kernels
    // must not bypass it.
    return BuildWeightOrderedEdges(n, max_threads, [&](size_t i, auto emit) {
      for (size_t j = i + 1; j < n; ++j) {
        const float w = static_cast<float>(
            d(static_cast<TaskIndex>(i), static_cast<TaskIndex>(j)));
        if (w > 0.0f) emit(j, w);
      }
    });
  }
  // PackedRows packs the oracle's rows in task-vector mode and returns
  // the held rows in packed-rows mode (no copy); either way the rows
  // (and thus the emitted edges) are bitwise identical.
  const std::shared_ptr<const PackedSetMatrix> rows = d.PackedRows();
  const PackedSetMatrix& packed = *rows;
  if (const std::optional<DistanceClasses> classes =
          ClassifyDistances(packed, d.kind(), n * (n - 1) / 2)) {
    return BuildClassOrderedEdges(packed, *classes, max_threads);
  }
  return BuildWeightOrderedEdges(n, max_threads, [&](size_t i, auto emit) {
    EmitPositiveDistancesInRow(packed, i, d.kind(), emit);
  });
}

}  // namespace hta
