#include "core/distance.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace hta {
namespace {

KeywordVector V(std::initializer_list<KeywordId> ids) {
  return KeywordVector(64, ids);
}

TEST(JaccardTest, DisjointSetsAtDistanceOne) {
  EXPECT_DOUBLE_EQ(
      VectorDistance(DistanceKind::kJaccard, V({1, 2}), V({3, 4})), 1.0);
}

TEST(JaccardTest, IdenticalSetsAtDistanceZero) {
  EXPECT_DOUBLE_EQ(
      VectorDistance(DistanceKind::kJaccard, V({1, 2}), V({1, 2})), 0.0);
}

TEST(JaccardTest, KnownOverlap) {
  // |∩| = 1, |∪| = 3 → d = 1 - 1/3.
  EXPECT_NEAR(VectorDistance(DistanceKind::kJaccard, V({1, 2}), V({2, 3})),
              2.0 / 3.0, 1e-12);
}

TEST(JaccardTest, BothEmptyAtDistanceZero) {
  EXPECT_DOUBLE_EQ(VectorDistance(DistanceKind::kJaccard, V({}), V({})), 0.0);
}

TEST(JaccardTest, EmptyVsNonEmptyAtDistanceOne) {
  EXPECT_DOUBLE_EQ(VectorDistance(DistanceKind::kJaccard, V({}), V({5})),
                   1.0);
}

TEST(DiceTest, KnownOverlap) {
  // 1 - 2*1/(2+2) = 0.5.
  EXPECT_DOUBLE_EQ(VectorDistance(DistanceKind::kDice, V({1, 2}), V({2, 3})),
                   0.5);
}

TEST(DiceTest, ViolatesTriangleInequality) {
  // The classic counterexample: Dice is not a metric. d(a,b) + d(b,c)
  // can be < d(a,c) when b overlaps both.
  const KeywordVector a = V({1});
  const KeywordVector c = V({2});
  const KeywordVector b = V({1, 2});
  const double dab = VectorDistance(DistanceKind::kDice, a, b);  // 1/3
  const double dbc = VectorDistance(DistanceKind::kDice, b, c);  // 1/3
  const double dac = VectorDistance(DistanceKind::kDice, a, c);  // 1
  EXPECT_GT(dac, dab + dbc);
  EXPECT_FALSE(IsMetric(DistanceKind::kDice));
}

TEST(HammingTest, NormalizedByUniverse) {
  EXPECT_DOUBLE_EQ(
      VectorDistance(DistanceKind::kHamming, V({1, 2}), V({2, 3})),
      2.0 / 64.0);
}

TEST(CosineAngularTest, OrthogonalAtOne) {
  EXPECT_NEAR(
      VectorDistance(DistanceKind::kCosineAngular, V({1}), V({2})), 1.0,
      1e-12);
}

TEST(CosineAngularTest, IdenticalAtZero) {
  EXPECT_NEAR(
      VectorDistance(DistanceKind::kCosineAngular, V({1, 2}), V({1, 2})), 0.0,
      1e-12);
}

TEST(DistanceKindTest, NamesAreStable) {
  EXPECT_EQ(DistanceKindName(DistanceKind::kJaccard), "jaccard");
  EXPECT_EQ(DistanceKindName(DistanceKind::kDice), "dice");
  EXPECT_EQ(DistanceKindName(DistanceKind::kHamming), "hamming");
  EXPECT_EQ(DistanceKindName(DistanceKind::kCosineAngular), "cosine-angular");
}

TEST(DistanceKindTest, MetricFlags) {
  EXPECT_TRUE(IsMetric(DistanceKind::kJaccard));
  EXPECT_TRUE(IsMetric(DistanceKind::kHamming));
  EXPECT_TRUE(IsMetric(DistanceKind::kCosineAngular));
  EXPECT_FALSE(IsMetric(DistanceKind::kDice));
}

TEST(TaskRelevanceTest, MatchesOneMinusDistance) {
  const Task task(0, V({1, 2, 3}));
  const Worker worker(0, V({2, 3, 4}));
  // J-similarity = 2/4 → rel = 0.5.
  EXPECT_DOUBLE_EQ(TaskRelevance(DistanceKind::kJaccard, task, worker), 0.5);
}

TEST(TaskRelevanceTest, PaperTableOneValues) {
  // Reconstructing rel values of the shape used in Table I requires
  // only that rel is within [0, 1] and monotone in overlap.
  const Worker worker(0, V({1, 2, 3, 4, 5}));
  const Task more_overlap(0, V({1, 2, 3}));
  const Task less_overlap(1, V({1, 9}));
  EXPECT_GT(TaskRelevance(DistanceKind::kJaccard, more_overlap, worker),
            TaskRelevance(DistanceKind::kJaccard, less_overlap, worker));
}

// --- Property sweeps: metric axioms on random vectors -----------------

// gtest prints a case as its bytes, and ctest names embed that dump, so
// the padding after `kind` is a zeroed member: implicit padding bytes
// are indeterminate and would make the names differ between builds.
struct MetricCase {
  MetricCase(DistanceKind kind, uint64_t seed) : kind(kind), seed(seed) {}
  DistanceKind kind;
  uint32_t zero_padding = 0;
  uint64_t seed;
};

class MetricPropertyTest : public ::testing::TestWithParam<MetricCase> {};

KeywordVector RandomVector(Rng* rng, size_t universe, size_t max_bits) {
  KeywordVector v(universe);
  const size_t bits = rng->NextBounded(max_bits + 1);
  for (size_t i = 0; i < bits; ++i) {
    v.Set(static_cast<KeywordId>(rng->NextBounded(universe)));
  }
  return v;
}

TEST_P(MetricPropertyTest, RangeSymmetryIdentityTriangle) {
  const MetricCase c = GetParam();
  Rng rng(c.seed);
  for (int trial = 0; trial < 300; ++trial) {
    const KeywordVector a = RandomVector(&rng, 96, 12);
    const KeywordVector b = RandomVector(&rng, 96, 12);
    const KeywordVector x = RandomVector(&rng, 96, 12);

    const double dab = VectorDistance(c.kind, a, b);
    const double dba = VectorDistance(c.kind, b, a);
    const double daa = VectorDistance(c.kind, a, a);
    const double dax = VectorDistance(c.kind, a, x);
    const double dxb = VectorDistance(c.kind, x, b);

    EXPECT_GE(dab, 0.0);
    EXPECT_LE(dab, 1.0);
    EXPECT_DOUBLE_EQ(dab, dba);
    EXPECT_DOUBLE_EQ(daa, 0.0);
    if (IsMetric(c.kind)) {
      EXPECT_LE(dab, dax + dxb + 1e-12)
          << DistanceKindName(c.kind) << " violated triangle inequality: a="
          << a.ToString() << " b=" << b.ToString() << " x=" << x.ToString();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, MetricPropertyTest,
    ::testing::Values(MetricCase{DistanceKind::kJaccard, 1},
                      MetricCase{DistanceKind::kJaccard, 2},
                      MetricCase{DistanceKind::kHamming, 3},
                      MetricCase{DistanceKind::kHamming, 4},
                      MetricCase{DistanceKind::kCosineAngular, 5},
                      MetricCase{DistanceKind::kCosineAngular, 6},
                      MetricCase{DistanceKind::kDice, 7}),
    [](const ::testing::TestParamInfo<MetricCase>& info) {
      std::string name = DistanceKindName(info.param.kind) + "_seed" +
                         std::to_string(info.param.seed);
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace hta
