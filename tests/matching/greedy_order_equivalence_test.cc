// Order-equivalence net for GreedyMaxWeightMatching: its radix-ordered
// scan must reproduce, bit for bit, the greedy matching obtained by
// stable-sorting the edges by (weight desc, u asc, v asc) and scanning
// them — on the diversity graphs the solver builds and on arbitrary
// edge lists (shuffled, tied, signed zeros, self-loops, duplicates,
// reversed endpoints, wide vertex ids, sizes around 2^15 and 2^16,
// inversions around every power-of-two position and at the end). It
// also pins BuildDiversityEdges' list itself, byte for byte, to a naive
// all-pairs emission sorted into that order.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/catalog_cache.h"
#include "core/distance_oracle.h"
#include "core/packed_set.h"
#include "matching/max_weight_matching.h"
#include "qap/hta_problem.h"
#include "util/rng.h"

namespace hta {
namespace {

// Force a multi-threaded global pool before first use so thread caps
// above 1 really fan out in BuildDiversityEdges.
const bool kForcePoolSize = [] {
  setenv("HTA_THREADS", "4", /*overwrite=*/0);
  return true;
}();

const DistanceKind kAllKinds[] = {DistanceKind::kJaccard, DistanceKind::kDice,
                                  DistanceKind::kHamming,
                                  DistanceKind::kCosineAngular};
const size_t kThreadCaps[] = {0, 1, 2, 4};
const size_t kBuildThreadCaps[] = {0, 1, 3};

bool ReferenceHeavier(const WeightedEdge& a, const WeightedEdge& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  if (a.u != b.u) return a.u < b.u;
  return a.v < b.v;
}

// The definition GreedyMaxWeightMatching must match: comparison sort,
// then a scan of every edge.
GraphMatching ReferenceGreedy(size_t vertex_count,
                              std::vector<WeightedEdge> edges) {
  std::stable_sort(edges.begin(), edges.end(), ReferenceHeavier);
  GraphMatching m;
  m.mate.assign(vertex_count, GraphMatching::kUnmatched);
  for (const WeightedEdge& e : edges) {
    if (e.u == e.v) continue;
    if (m.mate[e.u] == GraphMatching::kUnmatched &&
        m.mate[e.v] == GraphMatching::kUnmatched) {
      m.mate[e.u] = static_cast<int32_t>(e.v);
      m.mate[e.v] = static_cast<int32_t>(e.u);
      m.edges.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v));
      m.total_weight += e.weight;
    }
  }
  return m;
}

void ExpectMatchesReference(size_t vertex_count,
                            const std::vector<WeightedEdge>& edges,
                            const std::string& label) {
  const GraphMatching want = ReferenceGreedy(vertex_count, edges);
  const GraphMatching got = GreedyMaxWeightMatching(vertex_count, edges);
  EXPECT_EQ(got.mate, want.mate) << label;
  EXPECT_EQ(got.edges, want.edges) << label;
  EXPECT_EQ(got.total_weight, want.total_weight) << label;
}

// Small keyword sets over a universe of 40 make many pairs share a
// distance, so the diversity graphs carry heavy weight ties.
std::vector<Task> RandomTasks(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Task> tasks;
  for (size_t i = 0; i < count; ++i) {
    KeywordVector v(40);
    const size_t bits = 1 + rng.NextBounded(5);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(40)));
    }
    tasks.emplace_back(i, std::move(v));
  }
  return tasks;
}

void ExpectDiversityGraphMatches(const TaskDistanceOracle& oracle,
                                 const std::string& label) {
  for (const size_t cap : kThreadCaps) {
    const std::vector<WeightedEdge> edges = BuildDiversityEdges(oracle, cap);
    const std::string where = label + " cap " + std::to_string(cap);
    ExpectMatchesReference(oracle.task_count(), edges, where);
    // Padding vertices (|W| * Xmax > |T|) appear in no edge.
    ExpectMatchesReference(oracle.task_count() + 17, edges,
                           where + " padded");
  }
}

TEST(GreedyOrderEquivalenceTest, DiversityGraphsOfEveryOracleMode) {
  ASSERT_TRUE(kForcePoolSize);
  const std::vector<Task> tasks = RandomTasks(150, 7);
  const std::vector<Worker> workers = {Worker(1, KeywordVector(40, {3}))};
  for (const DistanceKind kind : kAllKinds) {
    const std::string name = DistanceKindName(kind);
    const TaskDistanceOracle on_the_fly(&tasks, kind);
    ExpectDiversityGraphMatches(on_the_fly, name + " on-the-fly");

    const size_t n = tasks.size();
    std::vector<double> matrix(n * n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        matrix[i * n + j] = on_the_fly(static_cast<TaskIndex>(i),
                                       static_cast<TaskIndex>(j));
      }
    }
    auto dense = TaskDistanceOracle::FromDenseMatrix(&tasks, kind, matrix);
    ASSERT_TRUE(dense.ok());
    ExpectDiversityGraphMatches(*dense, name + " dense");

    const CatalogCache cache(&tasks, kind);
    std::vector<size_t> sample;
    for (size_t c = 3; c < n; c += 2) sample.push_back(c);
    auto subset = HtaProblem::CreateFromSubset(cache, sample, &workers,
                                               /*xmax=*/2,
                                               /*allow_non_metric=*/true);
    ASSERT_TRUE(subset.ok()) << subset.status();
    ExpectDiversityGraphMatches(subset->oracle(), name + " subset");
  }
}

// Every pair i < j of positive weight, in the greedy's strict order.
std::vector<WeightedEdge> NaiveSortedEdges(const TaskDistanceOracle& oracle) {
  const size_t n = oracle.task_count();
  std::vector<WeightedEdge> edges;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const float w = static_cast<float>(
          oracle(static_cast<TaskIndex>(i), static_cast<TaskIndex>(j)));
      if (w > 0.0f) {
        edges.push_back(WeightedEdge{static_cast<VertexId>(i),
                                     static_cast<VertexId>(j), w});
      }
    }
  }
  std::sort(edges.begin(), edges.end(), ReferenceHeavier);
  return edges;
}

void ExpectBuildMatchesNaive(const TaskDistanceOracle& oracle,
                             const std::string& label) {
  const std::vector<WeightedEdge> want = NaiveSortedEdges(oracle);
  for (const size_t cap : kBuildThreadCaps) {
    const std::vector<WeightedEdge> got = BuildDiversityEdges(oracle, cap);
    const std::string where = label + " cap " + std::to_string(cap);
    ASSERT_EQ(got.size(), want.size()) << where;
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          got.size() * sizeof(WeightedEdge)),
              0)
        << where;
  }
}

// Tasks whose keyword counts are 0 or 3 of 12: the class table has
// 2 x 2 x 4 entries, so every n >= 7 takes the class-ordered build,
// and the empty rows make pairs of weight 0 (class 0) for every kind.
std::vector<Task> FewCountTasks(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Task> tasks;
  for (size_t i = 0; i < count; ++i) {
    KeywordVector v(12);
    if (!rng.NextBool(0.2)) {
      std::vector<KeywordId> ids = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
      std::shuffle(ids.begin(), ids.end(), rng);
      for (size_t b = 0; b < 3; ++b) v.Set(ids[b]);
    }
    tasks.emplace_back(i, std::move(v));
  }
  return tasks;
}

TEST(GreedyOrderEquivalenceTest, BuildIsTheSortedAllPairsEmission) {
  for (const DistanceKind kind : kAllKinds) {
    for (const size_t n : {size_t{2}, size_t{3}, size_t{15}, size_t{16},
                           size_t{17}, size_t{33}, size_t{300}}) {
      const std::string label =
          std::string(DistanceKindName(kind)) + " n " + std::to_string(n);
      const std::vector<Task> few = FewCountTasks(n, 40 + n);
      ExpectBuildMatchesNaive(TaskDistanceOracle(&few, kind),
                              label + " few counts");
      // Up to 5 of 40 keywords, and every fourth task empty.
      std::vector<Task> mixed = RandomTasks(n, 50 + n);
      for (size_t i = 0; i < n; i += 4) {
        mixed[i] = Task(mixed[i].id(), KeywordVector(40));
      }
      ExpectBuildMatchesNaive(TaskDistanceOracle(&mixed, kind),
                              label + " mixed");
    }
  }
}

TEST(GreedyOrderEquivalenceTest, BuildAtTheByteClassLimit) {
  // Every task holds exactly `count` of 600 keywords. Under Hamming the
  // table's positive weights are (2 count - 2 inter) / 600 for
  // inter < count: `count` classes. 255 still fit the one byte per pair
  // of the class-ordered build; 256 take the float path.
  constexpr size_t kUniverse = 600;
  for (const size_t count : {size_t{255}, size_t{256}}) {
    std::set<float> weights;
    for (size_t inter = 0; inter <= count; ++inter) {
      const float w = static_cast<float>(
          packed_internal::DistanceFromCounts<DistanceKind::kHamming>(
              inter, count, count, kUniverse));
      if (w > 0.0f) weights.insert(w);
    }
    ASSERT_EQ(weights.size(), count);

    Rng rng(60 + count);
    std::vector<KeywordId> ids(kUniverse);
    for (size_t k = 0; k < kUniverse; ++k) ids[k] = static_cast<KeywordId>(k);
    std::vector<Task> tasks;
    for (size_t i = 0; i < 40; ++i) {
      std::shuffle(ids.begin(), ids.end(), rng);
      tasks.emplace_back(
          i, KeywordVector(kUniverse, std::vector<KeywordId>(
                                          ids.begin(), ids.begin() + count)));
    }
    // Two identical rows: a pair of class 0. Row 9 becomes the last row
    // with one keyword swapped: a pair of the lightest class, which at
    // 255 classes is the largest a byte holds.
    tasks[7] = Task(tasks[7].id(), tasks[3].keywords());
    std::vector<KeywordId> near(ids.begin(), ids.begin() + count);
    near.back() = ids[count];
    tasks[9] = Task(tasks[9].id(), KeywordVector(kUniverse, near));
    ExpectBuildMatchesNaive(TaskDistanceOracle(&tasks, DistanceKind::kHamming),
                            std::to_string(count) + " classes");
  }
}

// `length` disjoint edges (2k, 2k + 1) of strictly falling weight,
// except at positions at - 1 and at: there edge (a, c) comes before the
// heavier edge (a, b) that shares its vertex a. The greedy's order
// takes (a, b); a scan that missed the inversion would take (a, c).
std::vector<WeightedEdge> InvertedAt(size_t length, size_t at) {
  std::vector<WeightedEdge> edges;
  for (size_t k = 0; k < length; ++k) {
    edges.push_back(WeightedEdge{
        static_cast<VertexId>(2 * k), static_cast<VertexId>(2 * k + 1),
        static_cast<float>(length - k) / static_cast<float>(length)});
  }
  const VertexId a = static_cast<VertexId>(2 * length);
  const VertexId b = edges[at - 1].u;
  const float heavier = edges[at - 1].weight;
  edges[at - 1] = WeightedEdge{a, a + 1, edges[at].weight};
  edges[at] = WeightedEdge{a, b, heavier};
  return edges;
}

TEST(GreedyOrderEquivalenceTest, InversionsAcrossOrderCheckChunks) {
  // The order check tests its comparisons in chunks from edge 1 on;
  // positions around every power of two put an inversion inside, at the
  // start of and straddling a chunk boundary, and the last edge of a
  // list of any length. The matching never fills, so a scan that missed
  // the inversion would take the lighter edge.
  constexpr size_t kLength = 9000;
  for (size_t power = 2; power <= 8192; power *= 2) {
    for (const size_t at : {power - 1, power, power + 1}) {
      ExpectMatchesReference(2 * kLength + 2, InvertedAt(kLength, at),
                             "inversion at " + std::to_string(at));
    }
  }
  for (const size_t length : {size_t{2}, size_t{257}, size_t{1000}, kLength}) {
    ExpectMatchesReference(2 * length + 2, InvertedAt(length, length - 1),
                           "last of " + std::to_string(length));
  }
}

TEST(GreedyOrderEquivalenceTest, ShuffledDiversityGraph) {
  const std::vector<Task> tasks = RandomTasks(120, 8);
  const TaskDistanceOracle oracle(&tasks, DistanceKind::kJaccard);
  std::vector<WeightedEdge> edges = BuildDiversityEdges(oracle);
  Rng rng(81);
  for (int round = 0; round < 3; ++round) {
    std::shuffle(edges.begin(), edges.end(), rng);
    ExpectMatchesReference(tasks.size(), edges,
                           "round " + std::to_string(round));
  }
}

TEST(GreedyOrderEquivalenceTest, ShuffledEdgesWithHeavyTies) {
  Rng rng(82);
  for (const size_t distinct : {size_t{1}, size_t{2}, size_t{5}, size_t{30}}) {
    std::vector<WeightedEdge> edges;
    for (size_t e = 0; e < 6000; ++e) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(300));
      const VertexId v = static_cast<VertexId>(rng.NextBounded(300));
      const float w = static_cast<float>(1 + rng.NextBounded(distinct)) /
                      static_cast<float>(distinct);
      edges.push_back(WeightedEdge{u, v, w});
    }
    ExpectMatchesReference(300, edges,
                           "distinct " + std::to_string(distinct));
  }
}

TEST(GreedyOrderEquivalenceTest, SignedZerosSelfLoopsDuplicatesAndReversed) {
  const float inf = std::numeric_limits<float>::infinity();
  const float denorm = std::numeric_limits<float>::denorm_min();
  const std::vector<WeightedEdge> base = {
      {0, 1, -0.0f}, {2, 3, 0.0f},    {1, 0, 0.0f},   {4, 4, 0.9f},
      {3, 2, -0.0f}, {5, 6, 0.5f},    {6, 5, 0.5f},   {5, 6, 0.5f},
      {7, 7, inf},   {8, 9, denorm},  {9, 8, -0.0f},  {1, 2, 0.5f},
      {0, 9, 0.0f},  {6, 0, 0.25f},   {2, 1, 0.5f},   {7, 8, inf},
      {4, 5, 1e30f}, {3, 0, -denorm}, {8, 7, 0.0f},   {9, 9, -0.0f}};
  Rng rng(83);
  std::vector<WeightedEdge> edges = base;
  for (int round = 0; round < 20; ++round) {
    ExpectMatchesReference(10, edges, "round " + std::to_string(round));
    std::shuffle(edges.begin(), edges.end(), rng);
  }
  // All-zero graphs in both signs still match greedily by (u, v).
  std::vector<WeightedEdge> zeros;
  for (VertexId u = 0; u < 8; ++u) {
    for (VertexId v = 0; v < 8; ++v) {
      zeros.push_back(WeightedEdge{v, u, (u + v) % 2 == 0 ? 0.0f : -0.0f});
    }
  }
  ExpectMatchesReference(8, zeros, "zeros");
}

TEST(GreedyOrderEquivalenceTest, VertexIdsAtOrAbove65536) {
  Rng rng(84);
  const size_t vertex_count = (size_t{1} << 16) + 5000;
  std::vector<WeightedEdge> edges;
  for (size_t e = 0; e < 20000; ++e) {
    const VertexId u =
        static_cast<VertexId>(vertex_count - 1 - rng.NextBounded(6000));
    const VertexId v = static_cast<VertexId>(rng.NextBounded(vertex_count));
    edges.push_back(WeightedEdge{
        u, v, static_cast<float>(rng.NextBounded(12)) / 11.0f});
  }
  ExpectMatchesReference(vertex_count, edges, "wide ids");
}

TEST(GreedyOrderEquivalenceTest, EdgeCountsAroundPowersOfTwo) {
  Rng rng(85);
  for (const size_t count :
       {size_t{32767}, size_t{32768}, size_t{32769}, size_t{65535},
        size_t{65536}, size_t{65537}}) {
    std::vector<WeightedEdge> tied;
    std::vector<WeightedEdge> spread;
    for (size_t e = 0; e < count; ++e) {
      const VertexId u = static_cast<VertexId>(rng.NextBounded(500));
      const VertexId v = static_cast<VertexId>(rng.NextBounded(500));
      tied.push_back(WeightedEdge{
          u, v, static_cast<float>(rng.NextBounded(30)) / 29.0f});
      // Every key byte varies: magnitudes over many exponents, both signs.
      const float magnitude = static_cast<float>(
          std::ldexp(rng.NextDouble(), static_cast<int>(rng.NextBounded(80)) -
                                           40));
      spread.push_back(
          WeightedEdge{u, v, rng.NextBool(0.1) ? -magnitude : magnitude});
    }
    ExpectMatchesReference(500, tied, "tied " + std::to_string(count));
    ExpectMatchesReference(500, spread, "spread " + std::to_string(count));
  }
}

TEST(GreedyOrderEquivalenceTest, OrderedButForAHeavierLastEdge) {
  // A list in the greedy's order except for its last edge, which is
  // heavier than the first. The matching is full long before that edge,
  // so only an order check that runs to the end of the list sees it.
  const std::vector<Task> tasks = RandomTasks(100, 9);
  const TaskDistanceOracle oracle(&tasks, DistanceKind::kJaccard);
  std::vector<WeightedEdge> edges = BuildDiversityEdges(oracle);
  ASSERT_GT(edges.size(), 2u);
  edges.push_back(WeightedEdge{edges.back().u, edges.back().v,
                               edges.front().weight * 2.0f});
  ExpectMatchesReference(tasks.size(), edges, "heavier last edge");
  // The same, with the extra edge one step ahead of the order.
  edges.back().weight = std::nextafter(edges.front().weight, 2.0f);
  ExpectMatchesReference(tasks.size(), edges, "just heavier last edge");
  // Four vertices, full after the first two edges.
  ExpectMatchesReference(
      4, {{0, 1, 0.9f}, {2, 3, 0.8f}, {0, 3, 0.3f}, {1, 2, 0.95f}},
      "four vertices");
}

TEST(GreedyOrderEquivalenceTest, EmptyAndSingleEdge) {
  ExpectMatchesReference(0, {}, "empty, no vertices");
  ExpectMatchesReference(3, {}, "empty");
  ExpectMatchesReference(2, {WeightedEdge{1, 0, 0.75f}}, "single");
  ExpectMatchesReference(2, {WeightedEdge{1, 1, 0.75f}}, "single self-loop");
}

}  // namespace
}  // namespace hta
