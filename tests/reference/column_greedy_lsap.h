// Test-only reference: the column-level greedy LSAP that HTA-GRE ran
// before SolveLsapGreedy grouped the columns by worker. Every (row,
// column) entry with positive profit is sorted by (float weight desc,
// row asc, col asc) and accepted while both ends are free; leftover rows
// take the remaining columns in index order.
#ifndef HTA_TESTS_REFERENCE_COLUMN_GREEDY_LSAP_H_
#define HTA_TESTS_REFERENCE_COLUMN_GREEDY_LSAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "matching/matching_types.h"

namespace hta::reference {

/// The column-level greedy over the first `positive_cols` columns (every
/// column that can carry positive profit), completed in index order.
template <typename ProfitFn>
LsapSolution ColumnGreedyLsap(size_t n, const ProfitFn& profit,
                              size_t positive_cols) {
  struct Entry {
    float w;
    uint32_t row;
    uint32_t col;
  };
  std::vector<Entry> entries;
  for (size_t j = 0; j < positive_cols; ++j) {
    for (size_t i = 0; i < n; ++i) {
      const double p = profit(i, j);
      if (p > 0.0) {
        entries.push_back(Entry{static_cast<float>(p),
                                static_cast<uint32_t>(i),
                                static_cast<uint32_t>(j)});
      }
    }
  }
  std::sort(entries.begin(), entries.end(),
            [](const Entry& a, const Entry& b) {
              if (a.w != b.w) return a.w > b.w;
              if (a.row != b.row) return a.row < b.row;
              return a.col < b.col;
            });
  LsapSolution s;
  s.row_to_col.assign(n, -1);
  std::vector<bool> col_used(n, false);
  for (const Entry& e : entries) {
    if (s.row_to_col[e.row] == -1 && !col_used[e.col]) {
      s.row_to_col[e.row] = static_cast<int32_t>(e.col);
      col_used[e.col] = true;
      s.profit += profit(e.row, e.col);
    }
  }
  size_t next_col = 0;
  for (size_t i = 0; i < n; ++i) {
    if (s.row_to_col[i] != -1) continue;
    while (col_used[next_col]) ++next_col;
    s.row_to_col[i] = static_cast<int32_t>(next_col);
    col_used[next_col] = true;
    s.profit += profit(i, next_col);
  }
  return s;
}

}  // namespace hta::reference

#endif  // HTA_TESTS_REFERENCE_COLUMN_GREEDY_LSAP_H_
