// Equivalence net for the capacity-aware greedy LSAP: on HTA auxiliary
// profits and on synthetic grouped matrices, SolveLsapGreedy(n, profit,
// group_count, group_size) must reproduce the column-level greedy it
// replaced — every (row, column) entry with positive profit, sorted by
// (float weight desc, row asc, col asc), accepted while both ends are
// free (tests/reference/column_greedy_lsap.h) — in row_to_col and in
// the bits of the summed profit.
#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "assign/hta_solver.h"
#include "matching/lsap.h"
#include "qap/qap_view.h"
#include "reference/auxiliary_profit.h"
#include "reference/column_greedy_lsap.h"
#include "util/rng.h"

namespace hta {
namespace {

using reference::ColumnGreedyLsap;

void ExpectSameSolution(const LsapSolution& grouped,
                        const LsapSolution& expected) {
  EXPECT_EQ(grouped.row_to_col, expected.row_to_col);
  EXPECT_EQ(std::bit_cast<uint64_t>(grouped.profit),
            std::bit_cast<uint64_t>(expected.profit))
      << grouped.profit << " vs " << expected.profit;
}

/// Row-major n x n matrix whose columns [0, group_count * group_size)
/// repeat one value per (row, group); every other column is zero.
std::vector<double> GroupedMatrix(size_t n, size_t group_count,
                                  size_t group_size,
                                  const std::vector<double>& group_values) {
  std::vector<double> m(n * n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < group_count * group_size; ++j) {
      m[i * n + j] = group_values[i * group_count + j / group_size];
    }
  }
  return m;
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

const DistanceKind kAllKinds[] = {DistanceKind::kJaccard, DistanceKind::kDice,
                                  DistanceKind::kHamming,
                                  DistanceKind::kCosineAngular};

TEST(GreedyLsapEquivalenceTest, HtaAuxiliaryProfitsMatchColumnGreedy) {
  // (|T|, |W|) per Xmax so that |W| * Xmax lands above, equal to and
  // below |T|: padding rows, an exact fit, and isolated columns. At
  // Xmax = 1 both degA and c are zero, so every profit is zero and both
  // solvers return the identity.
  struct Shape {
    size_t tasks;
    size_t workers;
  };
  uint64_t seed = 1;
  for (DistanceKind kind : kAllKinds) {
    for (size_t xmax : {size_t{1}, size_t{2}, size_t{15}}) {
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
        const DenseProfit profit(n, &matrix);
        const LsapSolution expected =
            ColumnGreedyLsap(n, profit, shape.workers * xmax);
        ExpectSameSolution(
            SolveLsapGreedy(n, profit, shape.workers, xmax), expected);

        // SolveHta's greedy arm groups the columns the same way: with
        // no swap pass, its bundles are the reference permutation's.
        HtaSolverOptions options;
        options.lsap = LsapMethod::kGreedy;
        options.swap = SwapMode::kNone;
        auto solved = SolveHta(*problem, options);
        ASSERT_TRUE(solved.ok()) << solved.status();
        EXPECT_EQ(solved->assignment.bundles,
                  ExtractAssignment(view, expected.row_to_col).bundles);
      }
    }
  }
}

TEST(GreedyLsapEquivalenceTest, HeavyTiesAndZeroRowsMatchColumnGreedy) {
  // Integer-valued profits from {0, 1, 2, 3}: long equal-weight runs
  // across rows and groups, and whole rows of zeros.
  Rng rng(11);
  for (int trial = 0; trial < 40; ++trial) {
    const size_t group_size = 1 + rng.NextBounded(4);
    const size_t group_count = 1 + rng.NextBounded(6);
    const size_t n = group_count * group_size + rng.NextBounded(5);
    std::vector<double> values(n * group_count);
    for (double& v : values) v = static_cast<double>(rng.NextBounded(4));
    for (size_t i = 0; i < n; ++i) {
      if (rng.NextBool(0.25)) {
        const auto row = static_cast<std::ptrdiff_t>(i * group_count);
        std::fill_n(values.begin() + row, group_count, 0.0);
      }
    }
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n
                                    << " groups=" << group_count << "x"
                                    << group_size);
    const std::vector<double> m =
        GroupedMatrix(n, group_count, group_size, values);
    const DenseProfit profit(n, &m);
    ExpectSameSolution(
        SolveLsapGreedy(n, profit, group_count, group_size),
        ColumnGreedyLsap(n, profit, group_count * group_size));
  }
}

TEST(GreedyLsapEquivalenceTest, DenseRandomProfitsWithUnitGroups) {
  Rng rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t n = 1 + rng.NextBounded(60);
    std::vector<double> m(n * n);
    for (double& v : m) v = rng.NextDouble();
    // A few exact zeros, which neither solver may take greedily.
    for (size_t k = 0; k < n; ++k) m[rng.NextBounded(n * n)] = 0.0;
    SCOPED_TRACE(testing::Message() << "trial " << trial << " n=" << n);
    const DenseProfit profit(n, &m);
    ExpectSameSolution(SolveLsapGreedy(n, profit, n, 1),
                       ColumnGreedyLsap(n, profit, n));
  }
}

}  // namespace
}  // namespace hta
