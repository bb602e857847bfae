#ifndef HTA_MATCHING_LSAP_H_
#define HTA_MATCHING_LSAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "matching/matching_types.h"
#include "matching/radix_order.h"
#include "util/check.h"

namespace hta {

/// Linear Sum Assignment Problem solvers (maximization): given an
/// n x n profit, find a permutation pi maximizing sum_i profit(i, pi(i)).
///
/// Both solvers take the profit grouped by column, as one group-major
/// table: columns [0, group_count * group_size) form `group_count`
/// groups of `group_size` consecutive columns that share one profit per
/// (row, group), stored at group_major[g * n + i]; every other column
/// has zero profit; group_count * group_size <= n; profits are finite
/// and >= 0. HTA's auxiliary profit f_{k,l} = bM(t_k) * degA_l + c_{k,l}
/// (Algorithm 1, Line 10) depends on the column l only through the
/// worker q = l / Xmax, so HTA passes its n x |W| table with
/// (|W|, Xmax); an unstructured matrix passes its transpose with (n, 1).
///  * SolveLsapExact  — the optimum, as an n x group_count
///                      transportation problem solved by successive
///                      shortest paths; the HTA-APP phase (the paper
///                      pays a square O(n^3) Hungarian solve for it).
///  * SolveLsapGreedy — the paper's GREEDYMATCHING on the complete
///                      bipartite LSAP graph: 1/2-approximation,
///                      O(n * group_count) with a radix order; the
///                      HTA-GRE phase.

namespace lsap_internal {

inline LsapSolution FinishSolution(std::vector<int32_t> row_to_col, size_t n,
                                   double profit) {
  std::vector<bool> col_used(n, false);
  for (size_t i = 0; i < n; ++i) {
    HTA_CHECK_GE(row_to_col[i], 0);
    const size_t col = static_cast<size_t>(row_to_col[i]);
    HTA_CHECK(col < n && !col_used[col]) << "row_to_col is not a permutation";
    col_used[col] = true;
  }
  LsapSolution s;
  s.row_to_col = std::move(row_to_col);
  s.profit = profit;
  return s;
}

}  // namespace lsap_internal

/// The paper's greedy LSAP (Section IV-C): GREEDYMATCHING on the
/// complete bipartite LSAP graph, 1/2-approximation, under the grouped
/// contract above.
///
/// Positive (row, group) pairs are taken in (float(profit) desc,
/// row asc, group asc) order; a pair is accepted while its row is free
/// and its group has room, and takes column g * group_size + used_g.
/// The scan stops once every group column is used; leftover rows take
/// the remaining columns in index order. Because a group fills its columns in ascending order, this is
/// the column-level greedy over (float(profit) desc, row asc, col asc),
/// bit for bit (row_to_col and profit summation order). Pairs are emitted
/// row-major, so a stable RadixOrderByWeight gives the full tie order.
/// O(n * group_count) time and memory.
inline LsapSolution SolveLsapGreedy(size_t n,
                                    std::span<const double> group_major,
                                    size_t group_count, size_t group_size) {
  HTA_CHECK_LE(group_count * group_size, n);
  HTA_CHECK_EQ(group_major.size(), group_count * n);
  const double* table = group_major.data();
  struct Pair {
    float weight;
    uint32_t row;
    uint32_t group;
  };
  std::vector<Pair> pairs;
  pairs.reserve(n * group_count);
  for (size_t i = 0; i < n; ++i) {
    for (size_t g = 0; g < group_count; ++g) {
      const double p = table[g * n + i];
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
    total += table[p.group * n + p.row];
  }
  // Complete the permanent with zero-profit pairs, in index order: a
  // leftover row could not take a group column while it had positive
  // profit there.
  size_t next_col = 0;
  for (size_t i = 0; i < n; ++i) {
    if (row_to_col[i] != -1) continue;
    while (col_used[next_col]) ++next_col;
    row_to_col[i] = static_cast<int32_t>(next_col);
    col_used[next_col] = true;
  }
  return lsap_internal::FinishSolution(std::move(row_to_col), n, total);
}

/// Exact LSAP under the grouped contract above. The table is
/// group-major, so a popped group scans one contiguous column. Solved as the
/// transportation problem it is: each row supplies one unit, group g
/// takes group_size units, and rows left over take the zero-profit
/// columns. Successive shortest paths with potentials run one
/// augmentation per group column, group-major. Each one is a Dijkstra
/// over the groups plus a sink ("row unassigned"), with the row nodes
/// contracted: a popped group scans the n rows once; a row held by
/// group g' relaxes g' (the row moves and frees a column of g'), a free
/// row relaxes the sink; the search stops once the sink is the cheapest
/// open node. A group or the sink records the (row, group) pair that
/// last lowered its distance, so an augmenting path walks back in pop
/// order and cannot cycle under floating-point round-off.
/// O(group_count^2 * group_size * n) time against O(n^3) for a square
/// solve; O(group_count + n) memory besides the table.
///
/// Group g's rows take columns g * group_size + 0, 1, ... in ascending
/// row order; the other rows take the remaining columns in index order.
inline LsapSolution SolveLsapExact(
    size_t n, std::span<const double> group_major, size_t group_count,
    size_t group_size) {
  HTA_CHECK_LE(group_count * group_size, n);
  HTA_CHECK_EQ(group_major.size(), group_count * n);
  const size_t sink = group_count;
  const double* table = group_major.data();
  double max_profit = 0.0;
  for (const double p : group_major) {
    HTA_DCHECK_GE(p, 0.0);
    max_profit = std::max(max_profit, p);
  }

  // Minimizes cost = -profit. Node potentials u (groups, then the
  // sink) keep every reduced cost >= 0; the sink starts at -max_profit
  // so that the free rows' edges are admissible before any flow moves.
  const double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> u(group_count + 1, 0.0);
  u[sink] = -max_profit;
  std::vector<uint32_t> owner(n, static_cast<uint32_t>(sink));
  std::vector<double> held(n, 0.0);  // Profit of the row's current edge.
  // slack[i] = held[i] - u[owner[i]]: the potential-adjusted gain of
  // releasing row i from its owner (or of leaving it unassigned).
  std::vector<double> slack(n, max_profit);
  std::vector<double> open(group_count + 1);  // -inf once popped.
  std::vector<double> dist(group_count + 1);
  std::vector<uint32_t> pred_row(group_count + 1);
  std::vector<uint32_t> pred_group(group_count + 1);
  std::vector<size_t> popped;
  popped.reserve(group_count);

  for (size_t source = 0; source < group_count; ++source) {
    for (size_t slot = 0; slot < group_size; ++slot) {
      std::fill(open.begin(), open.end(), kInf);
      popped.clear();
      size_t cur = source;
      dist[cur] = 0.0;
      while (true) {
        open[cur] = -kInf;
        popped.push_back(cur);
        const double base = dist[cur] + u[cur];
        const double* col = &table[cur * n];
        for (size_t i = 0; i < n; ++i) {
          const double cand = base - col[i] + slack[i];
          const uint32_t to = owner[i];
          if (cand < open[to]) {
            open[to] = cand;
            pred_row[to] = static_cast<uint32_t>(i);
            pred_group[to] = static_cast<uint32_t>(cur);
          }
        }
        // The cheapest open node (popped ones hold -inf); the sink wins
        // ties.
        size_t next = sink;
        for (size_t g = 0; g < group_count; ++g) {
          if (open[g] > -kInf && open[g] < open[next]) next = g;
        }
        if (next == sink) break;
        dist[next] = open[next];
        cur = next;
      }
      const double sink_dist = open[sink];
      for (size_t g : popped) u[g] += dist[g] - sink_dist;
      // Augment: each row on the path moves to the group that reached it.
      size_t node = sink;
      while (true) {
        const size_t i = pred_row[node];
        const size_t g = pred_group[node];
        owner[i] = static_cast<uint32_t>(g);
        held[i] = table[g * n + i];
        if (g == source) break;
        node = g;
      }
      for (size_t i = 0; i < n; ++i) slack[i] = held[i] - u[owner[i]];
    }
  }

  std::vector<int32_t> row_to_col(n, -1);
  std::vector<size_t> used(group_count, 0);
  size_t next_col = group_count * group_size;
  for (size_t i = 0; i < n; ++i) {
    const size_t g = owner[i];
    row_to_col[i] = static_cast<int32_t>(
        g == sink ? next_col++ : g * group_size + used[g]++);
  }
  double total = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const size_t g = owner[i];
    total += g == sink ? 0.0 : table[g * n + i];
  }
  return lsap_internal::FinishSolution(std::move(row_to_col), n, total);
}

}  // namespace hta

#endif  // HTA_MATCHING_LSAP_H_
