// Unit tests for the two production LSAP solvers and for the test-only
// JV reference that pins the exact one. Every solver is checked against
// permutation enumeration at n <= 8.
#include "matching/lsap.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include <gtest/gtest.h>

#include "reference/lsap_jv.h"
#include "util/rng.h"

namespace hta {
namespace {

using reference::SolveLsapJv;

std::vector<double> RandomProfitMatrix(size_t n, Rng* rng,
                                       double scale = 1.0) {
  std::vector<double> m(n * n);
  for (double& v : m) v = rng->NextDouble() * scale;
  return m;
}

/// Exact LSAP by permutation enumeration; n <= 8.
double BruteForceLsap(size_t n, const std::vector<double>& profit) {
  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = -1.0;
  do {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) total += profit[i * n + perm[i]];
    best = std::max(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  return best;
}

void ExpectPermutation(const LsapSolution& s, size_t n) {
  ASSERT_EQ(s.row_to_col.size(), n);
  std::vector<bool> seen(n, false);
  for (int32_t c : s.row_to_col) {
    ASSERT_GE(c, 0);
    ASSERT_LT(static_cast<size_t>(c), n);
    EXPECT_FALSE(seen[static_cast<size_t>(c)]);
    seen[static_cast<size_t>(c)] = true;
  }
  for (size_t j = 0; j < n; ++j) {
    EXPECT_EQ(s.row_to_col[static_cast<size_t>(s.col_to_row[j])],
              static_cast<int32_t>(j));
  }
}

double RecomputeProfit(const LsapSolution& s, size_t n,
                       const std::vector<double>& profit) {
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += profit[i * n + static_cast<size_t>(s.row_to_col[i])];
  }
  return total;
}

TEST(LsapJvTest, TrivialSizes) {
  const LsapSolution s0 = SolveLsapJv(0, [](size_t, size_t) { return 0.0; });
  EXPECT_TRUE(s0.row_to_col.empty());
  EXPECT_EQ(s0.profit, 0.0);

  std::vector<double> one{7.0};
  const LsapSolution s1 = SolveLsapJv(1, DenseProfit(1, &one));
  EXPECT_EQ(s1.row_to_col[0], 0);
  EXPECT_DOUBLE_EQ(s1.profit, 7.0);
}

TEST(LsapJvTest, KnownTwoByTwo) {
  // max(1+4, 2+3) = 5 on the diagonal.
  std::vector<double> m{1, 2, 3, 4};
  const LsapSolution s = SolveLsapJv(2, DenseProfit(2, &m));
  ExpectPermutation(s, 2);
  EXPECT_DOUBLE_EQ(s.profit, 5.0);
}

TEST(LsapJvTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(1);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 2 + rng.NextBounded(6);  // up to 7
    const auto m = RandomProfitMatrix(n, &rng);
    const LsapSolution s = SolveLsapJv(n, DenseProfit(n, &m));
    ExpectPermutation(s, n);
    EXPECT_NEAR(s.profit, BruteForceLsap(n, m), 1e-9);
    EXPECT_NEAR(s.profit, RecomputeProfit(s, n, m), 1e-9);
  }
}

TEST(LsapExactTest, MatchesBruteForceOnRandomInstances) {
  Rng rng(2);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 2 + rng.NextBounded(6);
    const auto m = RandomProfitMatrix(n, &rng);
    const LsapSolution s = SolveLsapExact(n, DenseProfit(n, &m), n, 1);
    ExpectPermutation(s, n);
    EXPECT_NEAR(s.profit, BruteForceLsap(n, m), 1e-9);
    EXPECT_NEAR(s.profit, RecomputeProfit(s, n, m), 1e-9);
  }
}

TEST(LsapExactTest, GroupedMatchesBruteForceOnRandomInstances) {
  // One profit per (row, group), repeated over the group's columns; the
  // columns past the groups are zero.
  Rng rng(3);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t group_size = 1 + rng.NextBounded(3);
    const size_t group_count = 1 + rng.NextBounded(8 / group_size);
    const size_t n = group_count * group_size +
                     rng.NextBounded(9 - group_count * group_size);
    std::vector<double> m(n * n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      for (size_t g = 0; g < group_count; ++g) {
        const double p = rng.NextDouble();
        for (size_t j = 0; j < group_size; ++j) {
          m[i * n + g * group_size + j] = p;
        }
      }
    }
    const LsapSolution s =
        SolveLsapExact(n, DenseProfit(n, &m), group_count, group_size);
    ExpectPermutation(s, n);
    EXPECT_NEAR(s.profit, BruteForceLsap(n, m), 1e-9)
        << "n=" << n << " groups=" << group_count << "x" << group_size;
  }
}

TEST(LsapCrossCheckTest, JvHandlesDegenerateZeroColumns) {
  // The HTA structure: most columns all-zero, few profitable ones.
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const size_t n = 30;
    std::vector<double> m(n * n, 0.0);
    for (size_t j = 0; j < 6; ++j) {
      for (size_t i = 0; i < n; ++i) m[i * n + j] = rng.NextDouble();
    }
    const LsapSolution jv = SolveLsapJv(n, DenseProfit(n, &m));
    const LsapSolution exact = SolveLsapExact(n, DenseProfit(n, &m), 6, 1);
    ExpectPermutation(jv, n);
    EXPECT_NEAR(jv.profit, exact.profit, 1e-9);
  }
}

TEST(LsapJvTest, ConstantMatrix) {
  std::vector<double> m(25, 3.0);
  const LsapSolution s = SolveLsapJv(5, DenseProfit(5, &m));
  ExpectPermutation(s, 5);
  EXPECT_NEAR(s.profit, 15.0, 1e-12);
}

TEST(LsapGreedyTest, IsValidAndHalfOptimal) {
  Rng rng(5);
  for (int trial = 0; trial < 60; ++trial) {
    const size_t n = 2 + rng.NextBounded(6);
    const auto m = RandomProfitMatrix(n, &rng);
    const LsapSolution greedy = SolveLsapGreedy(n, DenseProfit(n, &m), n, 1);
    ExpectPermutation(greedy, n);
    const double opt = BruteForceLsap(n, m);
    EXPECT_GE(greedy.profit + 1e-9, 0.5 * opt);
    EXPECT_LE(greedy.profit, opt + 1e-9);
    EXPECT_NEAR(greedy.profit, RecomputeProfit(greedy, n, m), 1e-9);
  }
}

TEST(LsapGreedyTest, ColumnHintMatchesFullScan) {
  // When the (group_count, group_size) hint covers exactly the positive
  // columns and each group repeats one profit per row, results must be
  // identical to the unhinted (n, 1) greedy.
  Rng rng(6);
  const size_t n = 40;
  const size_t group_count = 4;
  const size_t group_size = 3;
  std::vector<double> m(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t g = 0; g < group_count; ++g) {
      const double p = rng.NextDouble();
      for (size_t j = g * group_size; j < (g + 1) * group_size; ++j) {
        m[i * n + j] = p;
      }
    }
  }
  const LsapSolution full = SolveLsapGreedy(n, DenseProfit(n, &m), n, 1);
  const LsapSolution hinted =
      SolveLsapGreedy(n, DenseProfit(n, &m), group_count, group_size);
  EXPECT_NEAR(full.profit, hinted.profit, 1e-12);
  EXPECT_EQ(full.row_to_col, hinted.row_to_col);
}

TEST(LsapGreedyTest, GreedyPicksGloballyHeaviestEdgeFirst) {
  // 2x2 where greedy and optimal differ: greedy takes 10 (0,0), then
  // forced (1,1) = 1 → 11; optimal is 9 + 8 = 17.
  std::vector<double> m{10, 9, 8, 1};
  const LsapSolution greedy = SolveLsapGreedy(2, DenseProfit(2, &m), 2, 1);
  EXPECT_DOUBLE_EQ(greedy.profit, 11.0);
  const LsapSolution exact = SolveLsapExact(2, DenseProfit(2, &m), 2, 1);
  EXPECT_DOUBLE_EQ(exact.profit, 17.0);
  EXPECT_GE(greedy.profit, 0.5 * exact.profit);
}

// The structured exact solver: profits confined to the column groups.

TEST(LsapStructuredTest, MatchesJvOnZeroPaddedInstances) {
  // Random profits on the first m columns; every other column is zero
  // — the HTA structure at Xmax = 1. The structured solve must find the
  // square reference's optimal profit.
  Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 10 + rng.NextBounded(40);
    const size_t m = 1 + rng.NextBounded(n / 2);
    std::vector<double> matrix(n * n, 0.0);
    for (size_t j = 0; j < m; ++j) {
      for (size_t i = 0; i < n; ++i) matrix[i * n + j] = rng.NextDouble();
    }
    const DenseProfit profit(n, &matrix);
    const LsapSolution jv = SolveLsapJv(n, profit);
    const LsapSolution structured = SolveLsapExact(n, profit, m, 1);
    ExpectPermutation(structured, n);
    EXPECT_NEAR(structured.profit, jv.profit, 1e-9)
        << "n=" << n << " m=" << m;
    EXPECT_NEAR(structured.profit, RecomputeProfit(structured, n, matrix),
                1e-9);
  }
}

TEST(LsapStructuredTest, EmptyColumnSetGivesIdentity) {
  std::vector<double> matrix(9, 0.0);
  const DenseProfit profit(3, &matrix);
  for (const auto& [groups, size] : {std::pair<size_t, size_t>{0, 1},
                                     std::pair<size_t, size_t>{2, 0}}) {
    const LsapSolution s = SolveLsapExact(3, profit, groups, size);
    EXPECT_EQ(s.row_to_col, (std::vector<int32_t>{0, 1, 2}));
    EXPECT_EQ(s.profit, 0.0);
  }
}

TEST(LsapStructuredTest, SingleProfitableColumnPicksBestRow) {
  std::vector<double> matrix(16, 0.0);
  matrix[0 * 4 + 0] = 0.3;
  matrix[1 * 4 + 0] = 0.9;  // Row 1 is the best match for column 0.
  matrix[3 * 4 + 0] = 0.5;
  const DenseProfit profit(4, &matrix);
  const LsapSolution s = SolveLsapExact(4, profit, 1, 1);
  ExpectPermutation(s, 4);
  EXPECT_EQ(s.row_to_col[1], 0);
  // The other rows take columns 1, 2, 3 in index order.
  EXPECT_EQ(s.row_to_col, (std::vector<int32_t>{1, 0, 2, 3}));
  EXPECT_DOUBLE_EQ(s.profit, 0.9);
}

TEST(LsapStructuredTest, AllColumnsProfitableEqualsFullSolve) {
  Rng rng(13);
  const size_t n = 25;
  const auto matrix = RandomProfitMatrix(n, &rng);
  const DenseProfit profit(n, &matrix);
  const LsapSolution full = SolveLsapJv(n, profit);
  const LsapSolution structured = SolveLsapExact(n, profit, n, 1);
  EXPECT_NEAR(structured.profit, full.profit, 1e-9);
}

TEST(LsapStructuredTest, MoreColumnsThanNeededStillExact) {
  // Five profitable columns of six with heavy ties; column 5 is
  // all-zero per the grouped contract.
  std::vector<double> matrix(36, 0.5);
  for (size_t i = 0; i < 6; ++i) {
    matrix[i * 6 + i] = 0.0;
    matrix[i * 6 + 5] = 0.0;
  }
  const DenseProfit profit(6, &matrix);
  const LsapSolution s = SolveLsapExact(6, profit, 5, 1);
  ExpectPermutation(s, 6);
  // Optimal avoids all diagonal zeros on the 5 profitable columns.
  EXPECT_NEAR(s.profit, 2.5, 1e-9);
}

TEST(LsapSolutionTest, FinishSolutionDetectsNonPermutation) {
  EXPECT_DEATH(
      { lsap_internal::FinishSolution({0, 0}, 2, 0.0); },
      "not a permutation");
}

}  // namespace
}  // namespace hta
