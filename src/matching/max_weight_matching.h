#ifndef HTA_MATCHING_MAX_WEIGHT_MATCHING_H_
#define HTA_MATCHING_MAX_WEIGHT_MATCHING_H_

#include <vector>

#include "core/distance_oracle.h"
#include "matching/matching_types.h"

namespace hta {

/// GREEDYMATCHING (Section IV-C): repeatedly select the heaviest
/// remaining edge whose endpoints are both free. A classic
/// 1/2-approximation for maximum weight matching.
///
/// Edges are taken in the strict order (weight desc, u asc, v asc), for
/// any input order, so results are reproducible across runs and
/// platforms. A list already in that order, as BuildDiversityEdges
/// returns it, is scanned as it is: the order check is fused into the
/// scan, which keeps checking after the matching is full. At the first
/// edge out of order the scan starts over on RadixOrderByWeight
/// (matching/radix_order.h), a stable LSD radix sort on an
/// order-preserving 32-bit image of the weight (-0.0f counts as +0.0f);
/// each run of equal weights is then (u, v)-sorted only where its input
/// order differs. The scan is serial; `max_threads` is accepted for
/// call-site compatibility and ignored.
GraphMatching GreedyMaxWeightMatching(size_t vertex_count,
                                      std::vector<WeightedEdge> edges,
                                      size_t max_threads = 0);

/// Builds the edge list of the task-diversity graph B (Eq. 5):
/// vertices are tasks, weights are pairwise diversities from the
/// oracle. Only positive-weight pairs are kept (zero-diversity pairs
/// can never contribute to a maximum-weight matching), and they come
/// back in GreedyMaxWeightMatching's strict order (weight desc, u asc,
/// v asc), bit-identical for any thread count. `max_threads` caps the
/// threads used (0 = pool size, 1 = serial).
///
/// Every DistanceKind is a function of (|a|, |b|, |a AND b|). For an
/// oracle that computes distances from keyword vectors (on-the-fly or
/// shared subset), one table per call maps each (row count, row count,
/// intersection) triple to its weight class, ranked heaviest first.
/// Fixed row blocks are swept in parallel by the popcount kernel
/// (core/packed_set.h), which writes each pair's class into the block's
/// shard; each block then orders its shard by class with a counting
/// scatter, and the shards concatenate class-major, block-minor. A
/// dense-matrix oracle, or a table past a fixed size (many distinct row
/// counts), takes the float path instead: row-major emission, then one
/// RadixOrderByWeight. Unlike the paper's description, the ~n²/2
/// zero-weight pairs are never materialized (600 MB of edges at
/// |T| = 10⁴ buys only weight-0 matches); greedy matching on B is
/// GreedyMaxWeightMatching(d.task_count(), BuildDiversityEdges(d)).
std::vector<WeightedEdge> BuildDiversityEdges(const TaskDistanceOracle& d,
                                              size_t max_threads = 0);

}  // namespace hta

#endif  // HTA_MATCHING_MAX_WEIGHT_MATCHING_H_
