// Optimality net for the exact LSAP: SolveLsapExact(n, group_major,
// group_count, group_size) solves HTA-APP's auxiliary LSAP as a
// (task, worker) transportation problem, and its optimum must equal the
// square Jonker-Volgenant reference's (tests/reference/lsap_jv.h) within
// 1e-9 relative — on random, integer-tied and sparse profits, with and
// without padding rows, with zero rows, and on real HTA instances for
// every DistanceKind.
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "assign/hta_solver.h"
#include "matching/lsap.h"
#include "qap/qap_view.h"
#include "reference/auxiliary_profit.h"
#include "reference/dense_profit.h"
#include "reference/lsap_jv.h"
#include "util/rng.h"

namespace hta {
namespace {

enum class Profile { kRandom, kIntegerTies, kSparse };

/// Checks the exact solution's shape and optimality on a grouped
/// profit: a permutation, group_size rows per group, the reported
/// profit equal to its recomputation, the JV optimum, and
/// greedy <= exact <= 2 * greedy.
void ExpectExactOptimum(size_t n, const std::vector<double>& matrix,
                        size_t group_count, size_t group_size) {
  const LsapSolution exact =
      reference::SolveLsapExactDense(n, matrix, group_count, group_size);
  ASSERT_EQ(exact.row_to_col.size(), n);
  std::vector<bool> seen(n, false);
  std::vector<size_t> rows_per_group(group_count, 0);
  double recomputed = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t col = static_cast<size_t>(exact.row_to_col[i]);
    ASSERT_LT(col, n);
    ASSERT_FALSE(seen[col]) << "column " << col << " used twice";
    seen[col] = true;
    if (col < group_count * group_size) ++rows_per_group[col / group_size];
    recomputed += matrix[i * n + col];
  }
  for (size_t g = 0; g < group_count; ++g) {
    EXPECT_EQ(rows_per_group[g], group_size) << "group " << g;
  }
  EXPECT_EQ(exact.profit, recomputed);

  const LsapSolution jv =
      reference::SolveLsapJv(n, reference::DenseProfit(n, &matrix));
  EXPECT_NEAR(exact.profit, jv.profit, 1e-9 * std::max(1.0, jv.profit));

  const LsapSolution greedy =
      reference::SolveLsapGreedyDense(n, matrix, group_count, group_size);
  EXPECT_LE(greedy.profit, exact.profit * (1.0 + 1e-12));
  EXPECT_LE(exact.profit, 2.0 * greedy.profit * (1.0 + 1e-12));
}

/// Row-major n x n matrix with one value per (row, group) repeated over
/// the group's columns; zero past the groups, and on a quarter of the
/// rows.
std::vector<double> GroupedMatrix(size_t n, size_t group_count,
                                  size_t group_size, Profile profile,
                                  Rng* rng) {
  std::vector<double> m(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    if (rng->NextBool(0.25)) continue;  // An all-zero row.
    for (size_t g = 0; g < group_count; ++g) {
      double p = 0.0;
      switch (profile) {
        case Profile::kRandom:
          p = rng->NextDouble();
          break;
        case Profile::kIntegerTies:
          p = static_cast<double>(rng->NextBounded(4));
          break;
        case Profile::kSparse:
          p = rng->NextBool(0.15) ? rng->NextDouble() : 0.0;
          break;
      }
      for (size_t j = 0; j < group_size; ++j) {
        m[i * n + g * group_size + j] = p;
      }
    }
  }
  return m;
}

TEST(ExactLsapTest, GroupedProfitsMatchJvReference) {
  Rng rng(17);
  for (Profile profile :
       {Profile::kRandom, Profile::kIntegerTies, Profile::kSparse}) {
    for (size_t workers : {size_t{1}, size_t{2}, size_t{5}, size_t{8}}) {
      for (size_t xmax : {size_t{1}, size_t{2}, size_t{5}, size_t{15}}) {
        // n = |W| * Xmax exactly, then with padding rows.
        for (size_t padding : {size_t{0}, 1 + rng.NextBounded(20)}) {
          const size_t n = workers * xmax + padding;
          SCOPED_TRACE(testing::Message()
                       << "profile " << static_cast<int>(profile) << " |W|="
                       << workers << " xmax=" << xmax << " n=" << n);
          ExpectExactOptimum(
              n, GroupedMatrix(n, workers, xmax, profile, &rng), workers,
              xmax);
        }
      }
    }
  }
}

TEST(ExactLsapTest, AllZeroInstanceGivesIdentity) {
  for (const size_t padding : {size_t{0}, size_t{3}}) {
    const size_t n = 4 * 3 + padding;
    const std::vector<double> zeros(n * n, 0.0);
    const LsapSolution s = reference::SolveLsapExactDense(n, zeros, 4, 3);
    std::vector<int32_t> identity(n);
    for (size_t i = 0; i < n; ++i) identity[i] = static_cast<int32_t>(i);
    EXPECT_EQ(s.row_to_col, identity);
    EXPECT_EQ(s.profit, 0.0);
  }
}

TEST(ExactLsapTest, UnitGroupsMatchJvOnDenseRandomProfits) {
  // Unstructured square profits: every column its own group.
  Rng rng(18);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.NextBounded(60);
    std::vector<double> m(n * n);
    for (double& v : m) v = rng.NextDouble();
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n);
    ExpectExactOptimum(n, m, n, 1);
  }
}

struct Instance {
  std::vector<Task> tasks;
  std::vector<Worker> workers;
};

Instance MakeInstance(size_t num_tasks, size_t num_workers, uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  for (size_t i = 0; i < num_tasks; ++i) {
    KeywordVector v(60);
    const size_t bits = 1 + rng.NextBounded(6);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(60)));
    }
    inst.tasks.emplace_back(i, std::move(v));
  }
  for (size_t q = 0; q < num_workers; ++q) {
    KeywordVector v(60);
    for (int b = 0; b < 4; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(60)));
    }
    const double alpha = rng.NextDouble();
    inst.workers.emplace_back(q, std::move(v),
                              MotivationWeights{alpha, 1.0 - alpha});
  }
  return inst;
}

TEST(ExactLsapTest, HtaAuxiliaryProfitsMatchJvReference) {
  // (|T|, |W|) per Xmax so that |W| * Xmax lands above, equal to and
  // below |T|: padding rows, an exact fit, and isolated columns.
  struct Shape {
    size_t tasks;
    size_t workers;
  };
  uint64_t seed = 1;
  for (DistanceKind kind :
       {DistanceKind::kJaccard, DistanceKind::kDice, DistanceKind::kHamming,
        DistanceKind::kCosineAngular}) {
    for (size_t xmax : {size_t{2}, size_t{5}, size_t{15}}) {
      const size_t fit = 60 / xmax;
      for (const Shape shape : {Shape{60, fit + 2}, Shape{60, fit},
                                Shape{60, std::max<size_t>(fit / 2, 1)}}) {
        SCOPED_TRACE(testing::Message()
                     << DistanceKindName(kind) << " xmax=" << xmax
                     << " |T|=" << shape.tasks << " |W|=" << shape.workers);
        const Instance inst = MakeInstance(shape.tasks, shape.workers, seed++);
        auto problem = HtaProblem::Create(&inst.tasks, &inst.workers, xmax,
                                          kind, /*allow_non_metric=*/true);
        ASSERT_TRUE(problem.ok()) << problem.status();
        const QapView view(&*problem);
        const size_t n = view.n();
        const std::vector<double> matrix =
            reference::AuxiliaryProfitMatrix(*problem);
        ExpectExactOptimum(n, matrix, shape.workers, xmax);

        // SolveHta's exact arm reads the same profits: with no swap
        // pass, its bundles come from this permutation and its bound is
        // twice this optimum, bit for bit.
        const LsapSolution exact = reference::SolveLsapExactDense(
            n, matrix, shape.workers, xmax);
        HtaSolverOptions options;
        options.lsap = LsapMethod::kExactJv;
        options.swap = SwapMode::kNone;
        auto solved = SolveHta(*problem, options);
        ASSERT_TRUE(solved.ok()) << solved.status();
        EXPECT_EQ(solved->assignment.bundles,
                  ExtractAssignment(view, exact.row_to_col).bundles);
        EXPECT_EQ(std::bit_cast<uint64_t>(solved->stats.optimum_upper_bound),
                  std::bit_cast<uint64_t>(2.0 * exact.profit));
      }
    }
  }
}

}  // namespace
}  // namespace hta
