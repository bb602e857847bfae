// Test-only reference: the square Jonker-Volgenant LSAP solver that
// HTA-APP ran before its auxiliary LSAP became a (task, worker)
// transportation solve. It makes no assumption about the profit's
// structure, so the equivalence suites use it to pin SolveLsapExact's
// optimum on arbitrary square profits.
#ifndef HTA_TESTS_REFERENCE_LSAP_JV_H_
#define HTA_TESTS_REFERENCE_LSAP_JV_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "matching/lsap.h"

namespace hta::reference {

/// Exact LSAP via the Jonker-Volgenant algorithm (column reduction,
/// reduction transfer, augmenting row reduction, then shortest
/// augmenting paths). Internally minimizes cost = -profit.
template <typename ProfitFn>
LsapSolution SolveLsapJv(size_t n, const ProfitFn& profit) {
  if (n == 0) return lsap_internal::FinishSolution({}, 0, 0.0);
  const double kInf = std::numeric_limits<double>::infinity();
  auto cost = [&](size_t i, size_t j) { return -profit(i, j); };

  std::vector<int32_t> rowsol(n, -1);
  std::vector<int32_t> colsol(n, -1);
  std::vector<double> v(n, 0.0);
  std::vector<int32_t> matches(n, 0);

  // 1. Column reduction (reverse column order).
  for (size_t jj = n; jj-- > 0;) {
    double min_cost = cost(0, jj);
    size_t imin = 0;
    for (size_t i = 1; i < n; ++i) {
      const double c = cost(i, jj);
      if (c < min_cost) {
        min_cost = c;
        imin = i;
      }
    }
    v[jj] = min_cost;
    if (++matches[imin] == 1) {
      rowsol[imin] = static_cast<int32_t>(jj);
      colsol[jj] = static_cast<int32_t>(imin);
    }
  }

  // 2. Reduction transfer from single-assigned rows.
  std::vector<int32_t> free_rows;
  free_rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (matches[i] == 0) {
      free_rows.push_back(static_cast<int32_t>(i));
    } else if (matches[i] == 1) {
      const size_t j1 = static_cast<size_t>(rowsol[i]);
      double min_reduced = kInf;
      for (size_t j = 0; j < n; ++j) {
        if (j != j1) min_reduced = std::min(min_reduced, cost(i, j) - v[j]);
      }
      if (min_reduced != kInf) v[j1] -= min_reduced;
    }
  }

  // 3. Augmenting row reduction: two sweeps over the free rows.
  for (int sweep = 0; sweep < 2 && n >= 2; ++sweep) {
    size_t k = 0;
    const size_t prev_free_count = free_rows.size();
    std::vector<int32_t> next_free;
    while (k < prev_free_count) {
      const size_t i = static_cast<size_t>(free_rows[k++]);
      // Two smallest reduced costs in row i.
      double umin = cost(i, 0) - v[0];
      size_t j1 = 0;
      double usubmin = kInf;
      size_t j2 = n;  // invalid
      for (size_t j = 1; j < n; ++j) {
        const double h = cost(i, j) - v[j];
        if (h < usubmin) {
          if (h >= umin) {
            usubmin = h;
            j2 = j;
          } else {
            usubmin = umin;
            j2 = j1;
            umin = h;
            j1 = j;
          }
        }
      }
      int32_t displaced = colsol[j1];
      if (umin < usubmin) {
        v[j1] -= usubmin - umin;
      } else if (displaced >= 0 && j2 < n) {
        j1 = j2;
        displaced = colsol[j1];
      }
      rowsol[i] = static_cast<int32_t>(j1);
      colsol[j1] = static_cast<int32_t>(i);
      if (displaced >= 0) {
        if (umin < usubmin) {
          free_rows[--k] = displaced;  // Reconsider immediately.
        } else {
          next_free.push_back(displaced);
        }
      }
    }
    free_rows = std::move(next_free);
  }

  // 4. Shortest augmenting paths for the remaining free rows.
  std::vector<double> d(n);
  std::vector<int32_t> pred(n);
  std::vector<size_t> collist(n);
  for (int32_t free_row : free_rows) {
    const size_t freerow = static_cast<size_t>(free_row);
    for (size_t j = 0; j < n; ++j) {
      d[j] = cost(freerow, j) - v[j];
      pred[j] = free_row;
      collist[j] = j;
    }
    size_t low = 0;
    size_t up = 0;
    bool found = false;
    size_t endofpath = 0;
    double min_d = 0.0;
    while (!found) {
      if (up == low) {
        min_d = d[collist[up]];
        ++up;
        for (size_t k = up; k < n; ++k) {
          const size_t j = collist[k];
          const double h = d[j];
          if (h <= min_d) {
            if (h < min_d) {
              up = low;
              min_d = h;
            }
            collist[k] = collist[up];
            collist[up++] = j;
          }
        }
        for (size_t k = low; k < up; ++k) {
          if (colsol[collist[k]] < 0) {
            endofpath = collist[k];
            found = true;
            break;
          }
        }
      }
      if (!found) {
        const size_t j1 = collist[low++];
        const size_t i = static_cast<size_t>(colsol[j1]);
        const double h = cost(i, j1) - v[j1] - min_d;
        for (size_t k = up; k < n; ++k) {
          const size_t j = collist[k];
          const double v2 = cost(i, j) - v[j] - h;
          if (v2 < d[j]) {
            pred[j] = static_cast<int32_t>(i);
            if (v2 == min_d) {
              if (colsol[j] < 0) {
                endofpath = j;
                found = true;
                break;
              }
              collist[k] = collist[up];
              collist[up++] = j;
            }
            d[j] = v2;
          }
        }
      }
    }
    // Price update for scanned columns; columns popped at the current
    // minimum level contribute zero, so updating all of collist[0..low)
    // matches the classic formulation.
    for (size_t k = 0; k < low; ++k) {
      const size_t j1 = collist[k];
      v[j1] += d[j1] - min_d;
    }
    // Augment along the alternating path back to freerow.
    int32_t i;
    size_t j = endofpath;
    do {
      i = pred[j];
      colsol[j] = i;
      const int32_t j_prev = rowsol[static_cast<size_t>(i)];
      rowsol[static_cast<size_t>(i)] = static_cast<int32_t>(j);
      j = static_cast<size_t>(j_prev);
    } while (i != free_row);
  }

  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total += profit(i, static_cast<size_t>(rowsol[i]));
  }
  return lsap_internal::FinishSolution(std::move(rowsol), n, total);
}

}  // namespace hta::reference

#endif  // HTA_TESTS_REFERENCE_LSAP_JV_H_
