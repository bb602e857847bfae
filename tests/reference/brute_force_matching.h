// Test-only reference: exact maximum weight matching by exhaustive
// search, which pins the greedy matching's 1/2-approximation bound on
// tiny graphs.
#ifndef HTA_TESTS_REFERENCE_BRUTE_FORCE_MATCHING_H_
#define HTA_TESTS_REFERENCE_BRUTE_FORCE_MATCHING_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "matching/matching_types.h"
#include "util/check.h"

namespace hta::reference {

namespace brute_force_internal {

inline void ExactMatchingSearch(const std::vector<WeightedEdge>& edges,
                                size_t next, std::vector<int32_t>* mate,
                                double weight_so_far,
                                std::vector<size_t>* chosen,
                                double* best_weight,
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

}  // namespace brute_force_internal

/// Exponential — only valid for tiny graphs (vertex_count <= 12).
inline GraphMatching ExactMaxWeightMatchingBruteForce(
    size_t vertex_count, const std::vector<WeightedEdge>& edges) {
  HTA_CHECK_LE(vertex_count, size_t{12})
      << "brute-force matching is exponential; use it only on tiny graphs";
  std::vector<int32_t> mate(vertex_count, GraphMatching::kUnmatched);
  std::vector<size_t> chosen;
  std::vector<size_t> best_chosen;
  double best_weight = 0.0;
  brute_force_internal::ExactMatchingSearch(edges, 0, &mate, 0.0, &chosen,
                                            &best_weight, &best_chosen);
  GraphMatching m;
  m.mate.assign(vertex_count, GraphMatching::kUnmatched);
  for (size_t e : best_chosen) {
    const WeightedEdge& edge = edges[e];
    m.mate[edge.u] = static_cast<int32_t>(edge.v);
    m.mate[edge.v] = static_cast<int32_t>(edge.u);
    m.edges.emplace_back(std::min(edge.u, edge.v), std::max(edge.u, edge.v));
    m.total_weight += edge.weight;
  }
  return m;
}

}  // namespace hta::reference

#endif  // HTA_TESTS_REFERENCE_BRUTE_FORCE_MATCHING_H_
