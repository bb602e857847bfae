// Test-only helpers for LSAP profits written as dense n x n matrices: a
// functor view for the square references (JV, the column greedy), the
// group-major table the production solvers read, and both solvers run
// on a dense matrix through that table.
#ifndef HTA_TESTS_REFERENCE_DENSE_PROFIT_H_
#define HTA_TESTS_REFERENCE_DENSE_PROFIT_H_

#include <cstddef>
#include <vector>

#include "matching/lsap.h"
#include "util/check.h"

namespace hta::reference {

/// A row-major n x n matrix as a profit functor.
class DenseProfit {
 public:
  DenseProfit(size_t n, const std::vector<double>* matrix)
      : n_(n), matrix_(matrix) {
    HTA_CHECK_EQ(matrix->size(), n * n);
  }
  double operator()(size_t i, size_t j) const { return (*matrix_)[i * n_ + j]; }

 private:
  size_t n_;
  const std::vector<double>* matrix_;
};

/// The group-major table of a row-major n x n matrix under the LSAP
/// solvers' grouped contract (matching/lsap.h): row i's profit in group
/// g, read at the group's first column, lands at [g * n + i].
inline std::vector<double> GroupMajorTable(size_t n,
                                           const std::vector<double>& matrix,
                                           size_t group_count,
                                           size_t group_size) {
  HTA_CHECK_EQ(matrix.size(), n * n);
  HTA_CHECK_LE(group_count * group_size, n);
  std::vector<double> table(group_count * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t g = 0; g < group_count; ++g) {
      table[g * n + i] = matrix[i * n + g * group_size];
    }
  }
  return table;
}

/// SolveLsapExact / SolveLsapGreedy on a dense matrix that follows the
/// grouped contract.
inline LsapSolution SolveLsapExactDense(size_t n,
                                        const std::vector<double>& matrix,
                                        size_t group_count,
                                        size_t group_size) {
  return SolveLsapExact(n, GroupMajorTable(n, matrix, group_count, group_size),
                        group_count, group_size);
}

inline LsapSolution SolveLsapGreedyDense(size_t n,
                                         const std::vector<double>& matrix,
                                         size_t group_count,
                                         size_t group_size) {
  return SolveLsapGreedy(n,
                         GroupMajorTable(n, matrix, group_count, group_size),
                         group_count, group_size);
}

}  // namespace hta::reference

#endif  // HTA_TESTS_REFERENCE_DENSE_PROFIT_H_
