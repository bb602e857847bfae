// Test-only reference: HTA's auxiliary LSAP profit (Algorithm 1,
// Line 10) as a dense matrix, evaluated entry by entry from the QAP view
// rather than from the solver's tabulated per-worker profits.
#ifndef HTA_TESTS_REFERENCE_AUXILIARY_PROFIT_H_
#define HTA_TESTS_REFERENCE_AUXILIARY_PROFIT_H_

#include <cstddef>
#include <vector>

#include "matching/max_weight_matching.h"
#include "qap/hta_problem.h"
#include "qap/qap_view.h"

namespace hta::reference {

/// Row-major n x n f_{k,l} = bM(t_k) * degA_l + c_{k,l} for n = QapView::n,
/// with M_B the greedy matching SolveHta builds. Both terms use the
/// view's own arithmetic, so every entry equals SolveHta's tabulated
/// profit bit for bit.
inline std::vector<double> AuxiliaryProfitMatrix(const HtaProblem& problem) {
  const QapView view(&problem);
  const size_t n = view.n();
  const GraphMatching mb =
      GreedyMaxWeightMatching(n, BuildDiversityEdges(problem.oracle()));
  std::vector<double> bm(n, 0.0);
  for (const auto& [u, v] : mb.edges) {
    bm[u] = bm[v] = problem.oracle()(u, v);
  }
  std::vector<double> profit(n * n);
  for (size_t k = 0; k < n; ++k) {
    for (size_t l = 0; l < n; ++l) {
      profit[k * n + l] = bm[k] * view.DegA(l) + view.C(k, l);
    }
  }
  return profit;
}

}  // namespace hta::reference

#endif  // HTA_TESTS_REFERENCE_AUXILIARY_PROFIT_H_
