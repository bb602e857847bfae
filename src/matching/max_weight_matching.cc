#include "matching/max_weight_matching.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <span>

#include "matching/radix_order.h"
#include "util/check.h"
#include "util/parallel.h"

namespace hta {

namespace {

/// Rows per shard when building the diversity edge list in parallel.
constexpr size_t kEdgeRowGrain = 16;

bool EdgeHeavier(const WeightedEdge& a, const WeightedEdge& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
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

}  // namespace

GraphMatching GreedyMaxWeightMatching(size_t vertex_count,
                                      std::vector<WeightedEdge> edges,
                                      size_t /*max_threads*/) {
  GraphMatching m = MakeEmptyMatching(vertex_count);
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
      const WeightedEdge& e = src[begin];
      HTA_DCHECK_LT(static_cast<size_t>(e.u), vertex_count);
      HTA_DCHECK_LT(static_cast<size_t>(e.v), vertex_count);
      if (e.u == e.v) continue;
      if (m.mate[e.u] == GraphMatching::kUnmatched &&
          m.mate[e.v] == GraphMatching::kUnmatched) {
        AddMatchedEdge(&m, e.u, e.v, e.weight);
        free_vertices -= 2;
      }
    }
  }
  return m;
}

std::vector<WeightedEdge> BuildDiversityEdges(const TaskDistanceOracle& d,
                                              size_t max_threads) {
  const size_t n = d.task_count();
  if (n < 2) return {};
  // The fused SoA sweep applies only when distances come from keyword
  // vectors; a dense-matrix oracle answers from the caller's matrix,
  // which the kernels must not bypass.
  const bool batched = !d.has_dense_matrix();
  // PackedRows packs the oracle's rows in local-vector mode and gathers
  // them from the shared catalog matrix in subset mode; either way the
  // rows (and thus the emitted edges) are bitwise identical.
  const PackedSetMatrix packed = batched ? d.PackedRows() : PackedSetMatrix();
  // Padding vertices have zero weight to everything and can never
  // enter a maximum-weight matching built from positive edges, so only
  // real task pairs are scanned. Each fixed block of kEdgeRowGrain
  // rows fills its own shard (reserved at the block's exact pair
  // count); shards concatenate in block order, reproducing the serial
  // row-major edge order bit-for-bit at any thread count.
  const size_t num_blocks = parallel_internal::BlockCount(0, n, kEdgeRowGrain);
  // Batched shards are uninitialized byte buffers written through a
  // bump pointer: at kernel throughput, the value-initializing memset
  // of vector::resize and the capacity checks of push_back both cost
  // more than the fused distance sweep itself.
  struct RawShard {
    std::unique_ptr<std::byte[]> bytes;
    size_t count = 0;
    const WeightedEdge* data() const {
      return reinterpret_cast<const WeightedEdge*>(bytes.get());
    }
  };
  std::vector<RawShard> raw_shards(batched ? num_blocks : 0);
  std::vector<std::vector<WeightedEdge>> shards(batched ? 0 : num_blocks);
  ParallelFor(
      0, num_blocks, /*grain=*/1,
      [&](size_t block) {
        const parallel_internal::BlockRange rows =
            parallel_internal::BlockAt(0, n, kEdgeRowGrain, block);
        // Rows [b, e) hold sum_{i=b}^{e-1} (n - 1 - i) pairs.
        const size_t span = rows.end - rows.begin;
        const size_t pairs = span * (n - 1) -
                             (rows.end * (rows.end - 1) / 2 -
                              rows.begin * (rows.begin - 1) / 2);
        if (batched) {
          RawShard& shard = raw_shards[block];
          shard.bytes = std::make_unique_for_overwrite<std::byte[]>(
              pairs * sizeof(WeightedEdge));
          std::byte* base = shard.bytes.get();
          size_t emitted = 0;
          for (size_t i = rows.begin; i < rows.end; ++i) {
            EmitPositiveDistancesInRow(
                packed, i, d.kind(), [&](size_t j, float w) {
                  ::new (base + emitted * sizeof(WeightedEdge))
                      WeightedEdge{static_cast<VertexId>(i),
                                   static_cast<VertexId>(j), w};
                  ++emitted;
                });
          }
          shard.count = emitted;
          return;
        }
        std::vector<WeightedEdge>& shard = shards[block];
        shard.reserve(pairs);
        for (size_t i = rows.begin; i < rows.end; ++i) {
          for (size_t j = i + 1; j < n; ++j) {
            const float w = static_cast<float>(
                d(static_cast<TaskIndex>(i), static_cast<TaskIndex>(j)));
            if (w > 0.0f) {
              shard.push_back(WeightedEdge{static_cast<VertexId>(i),
                                           static_cast<VertexId>(j), w});
            }
          }
        }
      },
      max_threads);
  size_t total = 0;
  for (const auto& shard : raw_shards) total += shard.count;
  for (const auto& shard : shards) total += shard.size();
  std::vector<WeightedEdge> edges;
  edges.reserve(total);
  for (const auto& shard : raw_shards) {
    edges.insert(edges.end(), shard.data(), shard.data() + shard.count);
  }
  for (const auto& shard : shards) {
    edges.insert(edges.end(), shard.begin(), shard.end());
  }
  return edges;
}

GraphMatching PathGrowingMatching(size_t vertex_count,
                                  const std::vector<WeightedEdge>& edges) {
  // Adjacency lists with removal-by-flag; each vertex keeps its incident
  // edge indices.
  std::vector<std::vector<size_t>> adjacency(vertex_count);
  for (size_t e = 0; e < edges.size(); ++e) {
    if (edges[e].u == edges[e].v) continue;
    adjacency[edges[e].u].push_back(e);
    adjacency[edges[e].v].push_back(e);
  }
  std::vector<bool> removed(vertex_count, false);

  // Two alternating tentative matchings; the heavier one wins.
  std::vector<WeightedEdge> matchings[2];
  double weights[2] = {0.0, 0.0};

  for (VertexId start = 0; start < vertex_count; ++start) {
    if (removed[start]) continue;
    VertexId x = start;
    int side = 0;
    while (true) {
      // Heaviest incident edge to a non-removed neighbor.
      double best_w = -1.0;
      VertexId best_y = 0;
      const WeightedEdge* best_edge = nullptr;
      for (size_t ei : adjacency[x]) {
        const WeightedEdge& e = edges[ei];
        const VertexId y = (e.u == x) ? e.v : e.u;
        if (removed[y]) continue;
        if (e.weight > best_w ||
            (e.weight == best_w && best_edge != nullptr && y < best_y)) {
          best_w = e.weight;
          best_y = y;
          best_edge = &e;
        }
      }
      removed[x] = true;
      if (best_edge == nullptr) break;
      matchings[side].push_back(*best_edge);
      weights[side] += best_edge->weight;
      side = 1 - side;
      x = best_y;
    }
  }

  const int winner = weights[0] >= weights[1] ? 0 : 1;
  GraphMatching m = MakeEmptyMatching(vertex_count);
  for (const WeightedEdge& e : matchings[winner]) {
    // Paths alternate sides, so same-side edges are vertex-disjoint.
    HTA_DCHECK(m.mate[e.u] == GraphMatching::kUnmatched);
    HTA_DCHECK(m.mate[e.v] == GraphMatching::kUnmatched);
    AddMatchedEdge(&m, e.u, e.v, e.weight);
  }
  return m;
}

namespace {

void ExactMatchingSearch(const std::vector<WeightedEdge>& edges, size_t next,
                         std::vector<int32_t>* mate, double weight_so_far,
                         std::vector<size_t>* chosen, double* best_weight,
                         std::vector<size_t>* best_chosen) {
  if (weight_so_far > *best_weight) {
    *best_weight = weight_so_far;
    *best_chosen = *chosen;
  }
  for (size_t e = next; e < edges.size(); ++e) {
    const WeightedEdge& edge = edges[e];
    if (edge.u == edge.v) continue;
    if ((*mate)[edge.u] != GraphMatching::kUnmatched ||
        (*mate)[edge.v] != GraphMatching::kUnmatched) {
      continue;
    }
    (*mate)[edge.u] = static_cast<int32_t>(edge.v);
    (*mate)[edge.v] = static_cast<int32_t>(edge.u);
    chosen->push_back(e);
    ExactMatchingSearch(edges, e + 1, mate, weight_so_far + edge.weight,
                        chosen, best_weight, best_chosen);
    chosen->pop_back();
    (*mate)[edge.u] = GraphMatching::kUnmatched;
    (*mate)[edge.v] = GraphMatching::kUnmatched;
  }
}

}  // namespace

GraphMatching ExactMaxWeightMatchingBruteForce(
    size_t vertex_count, const std::vector<WeightedEdge>& edges) {
  HTA_CHECK_LE(vertex_count, size_t{12})
      << "brute-force matching is exponential; use it only on tiny graphs";
  std::vector<int32_t> mate(vertex_count, GraphMatching::kUnmatched);
  std::vector<size_t> chosen;
  std::vector<size_t> best_chosen;
  double best_weight = 0.0;
  ExactMatchingSearch(edges, 0, &mate, 0.0, &chosen, &best_weight,
                      &best_chosen);
  GraphMatching m = MakeEmptyMatching(vertex_count);
  for (size_t e : best_chosen) {
    AddMatchedEdge(&m, edges[e].u, edges[e].v, edges[e].weight);
  }
  return m;
}

}  // namespace hta
