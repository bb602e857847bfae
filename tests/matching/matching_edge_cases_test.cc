// Edge-case battery for the matching substrate: degenerate weights,
// duplicate edges, determinism of both 1/2-approximation algorithms.
#include <gtest/gtest.h>

#include "matching/max_weight_matching.h"
#include "reference/brute_force_matching.h"
#include "util/rng.h"

namespace hta {
namespace {

using reference::ExactMaxWeightMatchingBruteForce;

TEST(MatchingEdgeTest, AllZeroWeightsStillMatchValidly) {
  std::vector<WeightedEdge> edges;
  for (VertexId u = 0; u < 6; ++u) {
    for (VertexId v = u + 1; v < 6; ++v) {
      edges.push_back(WeightedEdge{u, v, 0.0f});
    }
  }
  const GraphMatching m = GreedyMaxWeightMatching(6, edges);
  EXPECT_DOUBLE_EQ(m.total_weight, 0.0);
  // Zero edges are still edges: the greedy picks vertex-disjoint ones.
  for (const auto& [u, v] : m.edges) {
    EXPECT_NE(u, v);
  }
}

TEST(MatchingEdgeTest, DuplicateEdgesDoNotDoubleMatch) {
  const std::vector<WeightedEdge> edges = {
      WeightedEdge{0, 1, 0.9f}, WeightedEdge{0, 1, 0.9f},
      WeightedEdge{1, 0, 0.9f}};
  const GraphMatching m = GreedyMaxWeightMatching(2, edges);
  ASSERT_EQ(m.edges.size(), 1u);
  EXPECT_FLOAT_EQ(static_cast<float>(m.total_weight), 0.9f);
}

TEST(MatchingEdgeTest, SingleVertexGraph) {
  const GraphMatching m = GreedyMaxWeightMatching(1, {});
  EXPECT_TRUE(m.edges.empty());
  EXPECT_FALSE(m.IsMatched(0));
}

TEST(MatchingEdgeTest, IsMatchedOutOfRangeIsFalse) {
  const GraphMatching m = GreedyMaxWeightMatching(2, {});
  EXPECT_FALSE(m.IsMatched(5));
}

TEST(MatchingEdgeTest, GreedyIgnoresEdgeOrderButKeepsWeightOrder) {
  // Heaviest-first semantics survive arbitrary input permutations.
  std::vector<WeightedEdge> edges = {
      WeightedEdge{0, 1, 0.2f}, WeightedEdge{2, 3, 0.8f},
      WeightedEdge{1, 2, 0.5f}};
  Rng rng(9);
  const GraphMatching reference = GreedyMaxWeightMatching(4, edges);
  for (int trial = 0; trial < 10; ++trial) {
    rng.Shuffle(&edges);
    const GraphMatching m = GreedyMaxWeightMatching(4, edges);
    EXPECT_EQ(m.edges, reference.edges);
  }
}

TEST(MatchingEdgeTest, StarGraphGreedyPicksOneSpoke) {
  // A star can match only one spoke; greedy must take the heaviest.
  const std::vector<WeightedEdge> edges = {
      WeightedEdge{0, 1, 0.3f}, WeightedEdge{0, 2, 0.9f},
      WeightedEdge{0, 3, 0.6f}};
  const GraphMatching m = GreedyMaxWeightMatching(4, edges);
  ASSERT_EQ(m.edges.size(), 1u);
  EXPECT_EQ(m.edges[0], std::make_pair(VertexId{0}, VertexId{2}));
}

TEST(MatchingEdgeTest, ExactBruteForceOnEmptyAndTiny) {
  EXPECT_DOUBLE_EQ(ExactMaxWeightMatchingBruteForce(0, {}).total_weight, 0.0);
  const GraphMatching one = ExactMaxWeightMatchingBruteForce(
      2, {WeightedEdge{0, 1, 0.4f}});
  EXPECT_FLOAT_EQ(static_cast<float>(one.total_weight), 0.4f);
}

}  // namespace
}  // namespace hta
