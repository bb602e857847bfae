#ifndef HTA_MATCHING_MATCHING_TYPES_H_
#define HTA_MATCHING_MATCHING_TYPES_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace hta {

/// Dense vertex id within a matching problem.
using VertexId = uint32_t;

/// An undirected weighted edge. Weights are non-negative throughout
/// libhta (distances and motivation profits are >= 0).
struct WeightedEdge {
  VertexId u = 0;
  VertexId v = 0;
  float weight = 0.0f;
};

/// Result of a (general-graph) matching computation.
struct GraphMatching {
  /// mate[v] is the matched partner of v, or kUnmatched.
  std::vector<int32_t> mate;
  /// The matched edges, each listed once (u < v).
  std::vector<std::pair<VertexId, VertexId>> edges;
  /// Sum of matched edge weights.
  double total_weight = 0.0;

  static constexpr int32_t kUnmatched = -1;

  /// True iff v is covered by the matching.
  bool IsMatched(VertexId v) const {
    return v < mate.size() && mate[v] != kUnmatched;
  }
};

/// Result of a linear sum assignment (square, n x n, maximization).
struct LsapSolution {
  /// row_to_col[i] = column assigned to row i (a permutation).
  std::vector<int32_t> row_to_col;
  /// Total profit of the assignment.
  double profit = 0.0;
};

}  // namespace hta

#endif  // HTA_MATCHING_MATCHING_TYPES_H_
