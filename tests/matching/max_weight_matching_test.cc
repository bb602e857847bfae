#include "matching/max_weight_matching.h"

#include <gtest/gtest.h>

#include "reference/brute_force_matching.h"
#include "util/rng.h"

namespace hta {
namespace {

using reference::ExactMaxWeightMatchingBruteForce;

std::vector<WeightedEdge> RandomEdges(size_t vertices, double density,
                                      Rng* rng) {
  std::vector<WeightedEdge> edges;
  for (VertexId u = 0; u < vertices; ++u) {
    for (VertexId v = u + 1; v < vertices; ++v) {
      if (rng->NextBool(density)) {
        edges.push_back(
            WeightedEdge{u, v, static_cast<float>(rng->NextDouble())});
      }
    }
  }
  return edges;
}

void ExpectValidMatching(const GraphMatching& m, size_t vertices) {
  ASSERT_EQ(m.mate.size(), vertices);
  for (VertexId v = 0; v < vertices; ++v) {
    if (m.mate[v] != GraphMatching::kUnmatched) {
      const VertexId partner = static_cast<VertexId>(m.mate[v]);
      ASSERT_LT(partner, vertices);
      EXPECT_EQ(m.mate[partner], static_cast<int32_t>(v))
          << "mate pointers must be mutual";
      EXPECT_NE(partner, v);
    }
  }
  // Edge list consistent with mate array and disjoint.
  std::vector<bool> used(vertices, false);
  for (const auto& [u, v] : m.edges) {
    EXPECT_FALSE(used[u]);
    EXPECT_FALSE(used[v]);
    used[u] = used[v] = true;
    EXPECT_EQ(m.mate[u], static_cast<int32_t>(v));
  }
}

TEST(GreedyMatchingTest, EmptyGraph) {
  const GraphMatching m = GreedyMaxWeightMatching(0, {});
  EXPECT_TRUE(m.edges.empty());
  EXPECT_EQ(m.total_weight, 0.0);
}

TEST(GreedyMatchingTest, SingleEdge) {
  const GraphMatching m =
      GreedyMaxWeightMatching(2, {WeightedEdge{0, 1, 0.5f}});
  ASSERT_EQ(m.edges.size(), 1u);
  EXPECT_DOUBLE_EQ(m.total_weight, 0.5);
  EXPECT_TRUE(m.IsMatched(0));
  EXPECT_TRUE(m.IsMatched(1));
}

TEST(GreedyMatchingTest, PicksHeaviestFirst) {
  // Triangle: greedy takes the heaviest edge, blocking the other two.
  const GraphMatching m = GreedyMaxWeightMatching(
      3, {WeightedEdge{0, 1, 1.0f}, WeightedEdge{1, 2, 0.9f},
          WeightedEdge{0, 2, 0.8f}});
  ASSERT_EQ(m.edges.size(), 1u);
  EXPECT_EQ(m.edges[0], std::make_pair(VertexId{0}, VertexId{1}));
  EXPECT_FALSE(m.IsMatched(2));
}

TEST(GreedyMatchingTest, PathGraphGreedyCanBeSuboptimal) {
  // Path a-b-c-d with weights 1, 1.5, 1: greedy takes the middle edge
  // (1.5) while optimal takes the two outer edges (2.0). This is the
  // canonical 1/2-approximation witness — assert the known behavior.
  const GraphMatching greedy = GreedyMaxWeightMatching(
      4, {WeightedEdge{0, 1, 1.0f}, WeightedEdge{1, 2, 1.5f},
          WeightedEdge{2, 3, 1.0f}});
  EXPECT_DOUBLE_EQ(greedy.total_weight, 1.5);
  const GraphMatching exact = ExactMaxWeightMatchingBruteForce(
      4, {WeightedEdge{0, 1, 1.0f}, WeightedEdge{1, 2, 1.5f},
          WeightedEdge{2, 3, 1.0f}});
  EXPECT_DOUBLE_EQ(exact.total_weight, 2.0);
  EXPECT_GE(greedy.total_weight, 0.5 * exact.total_weight);
}

TEST(GreedyMatchingTest, DeterministicTieBreaking) {
  std::vector<WeightedEdge> edges = {WeightedEdge{2, 3, 0.5f},
                                     WeightedEdge{0, 1, 0.5f}};
  const GraphMatching a = GreedyMaxWeightMatching(4, edges);
  std::swap(edges[0], edges[1]);
  const GraphMatching b = GreedyMaxWeightMatching(4, edges);
  EXPECT_EQ(a.edges, b.edges);
}

TEST(GreedyMatchingTest, IgnoresSelfLoops) {
  const GraphMatching m = GreedyMaxWeightMatching(
      2, {WeightedEdge{0, 0, 5.0f}, WeightedEdge{0, 1, 0.1f}});
  ASSERT_EQ(m.edges.size(), 1u);
  EXPECT_DOUBLE_EQ(m.total_weight, 0.1f);
}

TEST(GreedyMatchingTest, ValidOnRandomGraphs) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 2 + rng.NextBounded(30);
    const auto edges = RandomEdges(n, 0.5, &rng);
    const GraphMatching m = GreedyMaxWeightMatching(n, edges);
    ExpectValidMatching(m, n);
  }
}

TEST(GreedyMatchingTest, HalfApproximationOnSmallRandomGraphs) {
  Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t n = 2 + rng.NextBounded(9);  // <= 10 vertices.
    const auto edges = RandomEdges(n, 0.7, &rng);
    const GraphMatching greedy = GreedyMaxWeightMatching(n, edges);
    const GraphMatching exact = ExactMaxWeightMatchingBruteForce(n, edges);
    EXPECT_GE(greedy.total_weight + 1e-9, 0.5 * exact.total_weight);
    EXPECT_LE(greedy.total_weight, exact.total_weight + 1e-9);
  }
}

TEST(TaskGraphMatchingTest, CompleteGraphCoversAllButOneOnOddN) {
  std::vector<Task> tasks;
  Rng rng(3);
  for (size_t i = 0; i < 7; ++i) {
    KeywordVector v(64);
    for (int b = 0; b < 4; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(64)));
    }
    tasks.emplace_back(i, std::move(v));
  }
  const TaskDistanceOracle oracle(&tasks, DistanceKind::kJaccard);
  const GraphMatching m =
      GreedyMaxWeightMatching(oracle.task_count(), BuildDiversityEdges(oracle));
  // With distinct random tasks nearly all pairwise distances are
  // positive, so a near-perfect matching (3 pairs of 7 vertices) exists.
  EXPECT_EQ(m.edges.size(), 3u);
  ExpectValidMatching(m, 7);
}

TEST(ExactMatchingDeathTest, RefusesLargeGraphs) {
  EXPECT_DEATH({ ExactMaxWeightMatchingBruteForce(13, {}); },
               "brute-force matching");
}

}  // namespace
}  // namespace hta
