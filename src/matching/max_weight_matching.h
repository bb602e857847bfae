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
/// platforms. The order comes from RadixOrderByWeight
/// (matching/radix_order.h), a stable LSD radix sort on an
/// order-preserving 32-bit image of the weight (-0.0f counts as +0.0f):
/// at most four O(|E|) passes through one |E|-edge scratch buffer,
/// instead of an O(|E| log |E|) comparison sort. Each run of equal
/// weights is then (u, v)-sorted only where its input order differs;
/// BuildDiversityEdges' row-major lists never need it. The scan stops
/// once fewer than two vertices are free. The sort is serial;
/// `max_threads` is accepted for call-site compatibility and ignored.
GraphMatching GreedyMaxWeightMatching(size_t vertex_count,
                                      std::vector<WeightedEdge> edges,
                                      size_t max_threads = 0);

/// Builds the edge list of the task-diversity graph B (Eq. 5):
/// vertices are tasks, weights are pairwise diversities from the
/// oracle. Only positive-weight pairs are kept (zero-diversity pairs
/// can never contribute to a maximum-weight matching), in row-major
/// order. Row blocks are scanned in parallel into per-block shards
/// sized from the exact per-block pair counts and concatenated in
/// block order, so the returned list is bit-identical to a serial
/// row-major scan for any thread count. `max_threads` caps the threads
/// used (0 = pool size, 1 = serial). An oracle that computes distances
/// from keyword vectors (on-the-fly or shared subset) is swept by the
/// fused SoA emission kernel (core/packed_set.h); a dense-matrix
/// oracle is read pair by pair from its float matrix — same edges,
/// same order. Unlike the paper's description, the ~n²/2
/// zero-weight pairs are never materialized (600 MB of edges at
/// |T| = 10⁴ buys only weight-0 matches); greedy matching on B is
/// GreedyMaxWeightMatching(d.task_count(), BuildDiversityEdges(d)).
std::vector<WeightedEdge> BuildDiversityEdges(const TaskDistanceOracle& d,
                                              size_t max_threads = 0);

/// Path-growing algorithm of Drake & Hougardy: also a 1/2-approximation
/// but linear in |E| after adjacency construction — provided as an
/// ablation alternative to GreedyMaxWeightMatching (bench A3).
GraphMatching PathGrowingMatching(size_t vertex_count,
                                  const std::vector<WeightedEdge>& edges);

/// Exact maximum weight matching by exhaustive search. Exponential —
/// only valid for tiny graphs (vertex_count <= 12); used by property
/// tests to validate the 1/2-approximation bound of the greedy methods.
GraphMatching ExactMaxWeightMatchingBruteForce(
    size_t vertex_count, const std::vector<WeightedEdge>& edges);

}  // namespace hta

#endif  // HTA_MATCHING_MAX_WEIGHT_MATCHING_H_
