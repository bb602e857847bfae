#ifndef HTA_MATCHING_LSAP_H_
#define HTA_MATCHING_LSAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "matching/matching_types.h"
#include "matching/radix_order.h"
#include "util/check.h"

namespace hta {

/// Linear Sum Assignment Problem solvers (maximization): given an
/// n x n profit function, find a permutation pi maximizing
/// sum_i profit(i, pi(i)).
///
/// Four solvers, trading exactness for speed:
///  * SolveLsapJv        — exact, Jonker-Volgenant shortest augmenting
///                         path, O(n^3) worst case but fast in practice;
///                         this is the "Hungarian algorithm" phase of
///                         HTA-APP (the paper adapts Carpaneto et al.).
///  * SolveLsapHungarian — exact, simple O(n^3) Hungarian with
///                         potentials; slower, used as an independent
///                         reference implementation in tests.
///  * SolveLsapGreedy    — the paper's GREEDYMATCHING on the complete
///                         bipartite LSAP graph: 1/2-approximation,
///                         capacity-aware over groups of identical
///                         columns, O(n * groups) with a radix order;
///                         this is the HTA-GRE phase.
///  * SolveLsapAuction   — Bertsekas auction with epsilon scaling;
///                         near-optimal heuristic, ablation A1 only.
///
/// All profits must be finite; greedy additionally assumes profits
/// >= 0 (true for HTA: motivation terms are non-negative).
///
/// Solvers are templates over the profit functor so that HTA-APP can
/// evaluate profits on the fly (f_{k,l} = bM(t_k) * degA_l + c_{k,l},
/// Algorithm 1 Line 10) without materializing an n x n matrix.

namespace lsap_internal {

inline LsapSolution FinishSolution(std::vector<int32_t> row_to_col, size_t n,
                                   double profit) {
  LsapSolution s;
  s.row_to_col = std::move(row_to_col);
  s.col_to_row.assign(n, -1);
  for (size_t i = 0; i < n; ++i) {
    HTA_CHECK_GE(s.row_to_col[i], 0);
    HTA_CHECK(s.col_to_row[static_cast<size_t>(s.row_to_col[i])] == -1)
        << "row_to_col is not a permutation";
    s.col_to_row[static_cast<size_t>(s.row_to_col[i])] =
        static_cast<int32_t>(i);
  }
  s.profit = profit;
  return s;
}

}  // namespace lsap_internal

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

/// The paper's greedy LSAP (Section IV-C): GREEDYMATCHING on the
/// complete bipartite LSAP graph, 1/2-approximation. Capacity-aware:
/// columns [0, group_count * group_size) form `group_count` groups of
/// `group_size` consecutive columns. Requires profits >= 0, one profit
/// per (row, group) shared by the group's columns, zero profit outside
/// the groups, and group_count * group_size <= n.
///
/// Positive (row, group) pairs, read at the group's first column, are
/// taken in (float(profit) desc, row asc, group asc) order; a pair is
/// accepted while its row is free and its group has room, and takes
/// column g * group_size + used_g. The scan stops once every group
/// column is used; leftover rows take the remaining columns in index
/// order. Because a group fills its columns in ascending order, this is
/// the column-level greedy over (float(profit) desc, row asc, col asc),
/// bit for bit (row_to_col and profit summation order). HTA-GRE passes
/// (|W|, Xmax); an unstructured profit passes (n, 1). Pairs are emitted
/// row-major, so a stable RadixOrderByWeight gives the full tie order.
/// O(n * group_count) time and memory.
template <typename ProfitFn>
LsapSolution SolveLsapGreedy(size_t n, const ProfitFn& profit,
                             size_t group_count, size_t group_size) {
  HTA_CHECK_LE(group_count * group_size, n);
  struct Pair {
    float weight;
    uint32_t row;
    uint32_t group;
  };
  std::vector<Pair> pairs;
  pairs.reserve(n * group_count);
  for (size_t i = 0; i < n; ++i) {
    for (size_t g = 0; g < group_count; ++g) {
      const double p = profit(i, g * group_size);
      HTA_DCHECK_GE(p, 0.0);
      if (p > 0.0) {
        pairs.push_back(Pair{static_cast<float>(p), static_cast<uint32_t>(i),
                             static_cast<uint32_t>(g)});
      }
    }
  }
  std::unique_ptr<std::byte[]> scratch;
  const std::span<const Pair> order =
      RadixOrderByWeight(std::span<Pair>(pairs), &scratch);

  std::vector<int32_t> row_to_col(n, -1);
  std::vector<bool> col_used(n, false);
  std::vector<size_t> used(group_count, 0);
  size_t free_group_cols = group_count * group_size;
  double total = 0.0;
  for (const Pair& p : order) {
    if (free_group_cols == 0) break;
    if (row_to_col[p.row] != -1 || used[p.group] == group_size) continue;
    const size_t col = p.group * group_size + used[p.group]++;
    row_to_col[p.row] = static_cast<int32_t>(col);
    col_used[col] = true;
    --free_group_cols;
    total += profit(p.row, col);
  }
  // Complete the permanent with zero-profit pairs, in index order.
  size_t next_col = 0;
  for (size_t i = 0; i < n; ++i) {
    if (row_to_col[i] != -1) continue;
    while (col_used[next_col]) ++next_col;
    row_to_col[i] = static_cast<int32_t>(next_col);
    col_used[next_col] = true;
    total += profit(i, next_col);
  }
  return lsap_internal::FinishSolution(std::move(row_to_col), n, total);
}

/// Structured exact LSAP: exploits the HTA profit structure in which
/// only a known subset of columns (the |W| * Xmax worker-clique
/// columns) can carry non-zero profit. Solves the rectangular
/// assignment of profitable columns to rows exactly — O(m^2 n) for m
/// profitable columns instead of the square solver's O(n^3) — then
/// completes the permutation with zero-profit pairs in index order.
///
/// Produces the same optimal profit as SolveLsapJv whenever every
/// column outside `profitable_cols` is all-zero (verified by tests).
/// This is the solver behind the HTA-APP+rect extension (ablation A6);
/// the paper's own implementation pays the square-Hungarian cost.
///
/// Requires profits >= 0 and `profitable_cols` distinct and < n.
template <typename ProfitFn>
LsapSolution SolveLsapStructured(size_t n, const ProfitFn& profit,
                                 const std::vector<size_t>& profitable_cols) {
  const size_t m = profitable_cols.size();
  HTA_CHECK_LE(m, n);
  if (m == 0) {
    // Nothing profitable: identity permutation.
    std::vector<int32_t> row_to_col(n);
    for (size_t i = 0; i < n; ++i) row_to_col[i] = static_cast<int32_t>(i);
    return lsap_internal::FinishSolution(std::move(row_to_col), n, 0.0);
  }
  const double kInf = std::numeric_limits<double>::infinity();
  // Transposed rectangular problem: "rows" are the m profitable
  // columns, "cols" are the n tasks. Minimize cost = -profit.
  auto cost = [&](size_t r, size_t c) {
    return -profit(c, profitable_cols[r]);
  };

  // Shortest-augmenting-path rectangular assignment (scipy-style).
  std::vector<double> u(m, 0.0), v(n, 0.0);
  std::vector<int32_t> col4row(m, -1);  // task assigned to each column-row.
  std::vector<int32_t> row4col(n, -1);
  std::vector<double> shortest(n);
  std::vector<int32_t> pred(n);
  std::vector<bool> sr(m), sc(n);
  std::vector<size_t> remaining(n);

  for (size_t cur = 0; cur < m; ++cur) {
    std::fill(shortest.begin(), shortest.end(), kInf);
    std::fill(sr.begin(), sr.end(), false);
    std::fill(sc.begin(), sc.end(), false);
    size_t num_remaining = n;
    for (size_t j = 0; j < n; ++j) remaining[j] = n - 1 - j;

    double min_val = 0.0;
    size_t i = cur;
    int64_t sink = -1;
    while (sink == -1) {
      sr[i] = true;
      size_t index = num_remaining;  // Invalid until set.
      double lowest = kInf;
      for (size_t it = 0; it < num_remaining; ++it) {
        const size_t j = remaining[it];
        const double r = min_val + cost(i, j) - u[i] - v[j];
        if (r < shortest[j]) {
          pred[j] = static_cast<int32_t>(i);
          shortest[j] = r;
        }
        // Pick the minimum; prefer unassigned columns on ties so the
        // augmentation terminates as early as possible.
        if (index == num_remaining || shortest[j] < lowest ||
            (shortest[j] == lowest && row4col[j] == -1)) {
          lowest = shortest[j];
          index = it;
        }
      }
      HTA_CHECK(index < num_remaining && lowest < kInf)
          << "structured LSAP infeasible";
      min_val = lowest;
      const size_t j = remaining[index];
      if (row4col[j] == -1) {
        sink = static_cast<int64_t>(j);
      } else {
        i = static_cast<size_t>(row4col[j]);
      }
      sc[j] = true;
      remaining[index] = remaining[--num_remaining];
    }

    u[cur] += min_val;
    for (size_t r = 0; r < m; ++r) {
      if (sr[r] && r != cur) {
        u[r] += min_val - shortest[static_cast<size_t>(col4row[r])];
      }
    }
    for (size_t j = 0; j < n; ++j) {
      if (sc[j]) v[j] -= min_val - shortest[j];
    }

    // Augment along the path back from the sink.
    size_t j = static_cast<size_t>(sink);
    while (true) {
      const size_t r = static_cast<size_t>(pred[j]);
      row4col[j] = static_cast<int32_t>(r);
      const int32_t old = col4row[r];
      col4row[r] = static_cast<int32_t>(j);
      if (r == cur) break;
      HTA_DCHECK_GE(old, 0);
      j = static_cast<size_t>(old);
    }
  }

  // Assemble the full n x n permutation: profitable columns get their
  // optimal rows; all other (zero) columns are filled in index order.
  std::vector<int32_t> row_to_col(n, -1);
  double total = 0.0;
  for (size_t r = 0; r < m; ++r) {
    const size_t task = static_cast<size_t>(col4row[r]);
    row_to_col[task] = static_cast<int32_t>(profitable_cols[r]);
    total += profit(task, profitable_cols[r]);
  }
  std::vector<bool> col_used(n, false);
  for (size_t c : profitable_cols) col_used[c] = true;
  size_t next_col = 0;
  for (size_t task = 0; task < n; ++task) {
    if (row_to_col[task] != -1) continue;
    while (col_used[next_col]) ++next_col;
    row_to_col[task] = static_cast<int32_t>(next_col);
    col_used[next_col] = true;
    total += profit(task, next_col);
  }
  return lsap_internal::FinishSolution(std::move(row_to_col), n, total);
}

/// Exact LSAP over a dense row-major profit matrix, simple O(n^3)
/// Hungarian with potentials. Independent of SolveLsapJv; the two are
/// cross-checked in tests.
LsapSolution SolveLsapHungarian(size_t n, const std::vector<double>& profit);

/// Bertsekas auction algorithm with epsilon scaling (maximization).
/// Near-optimal on real-valued profits (optimal when profit gaps exceed
/// the final epsilon); provided for ablation A1.
LsapSolution SolveLsapAuction(size_t n, const std::vector<double>& profit);

/// Convenience adapter: dense row-major matrix as a profit functor.
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

}  // namespace hta

#endif  // HTA_MATCHING_LSAP_H_
