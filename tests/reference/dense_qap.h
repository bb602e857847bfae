// Test-only reference: the MAXQAP matrices A, B, C (Eqs. 4-6) written
// out densely, entry by entry from the implicit QapView, with the
// objective evaluated straight from its definition. Small instances
// only: three n x n matrices.
#ifndef HTA_TESTS_REFERENCE_DENSE_QAP_H_
#define HTA_TESTS_REFERENCE_DENSE_QAP_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "qap/qap_view.h"
#include "util/check.h"

namespace hta::reference {

/// Row-major n x n copies of QapView::A, B and C.
struct DenseQapMatrices {
  size_t n = 0;
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> c;

  static DenseQapMatrices FromView(const QapView& view) {
    DenseQapMatrices m;
    m.n = view.n();
    m.a.resize(m.n * m.n);
    m.b.resize(m.n * m.n);
    m.c.resize(m.n * m.n);
    for (size_t k = 0; k < m.n; ++k) {
      for (size_t l = 0; l < m.n; ++l) {
        m.a[k * m.n + l] = view.A(k, l);
        m.b[k * m.n + l] = view.B(k, l);
        m.c[k * m.n + l] = view.C(k, l);
      }
    }
    return m;
  }

  /// sum_{k != l} a_{pi(k),pi(l)} b_{k,l} + sum_k c_{k,pi(k)}.
  double Objective(const std::vector<int32_t>& perm) const {
    HTA_CHECK_EQ(perm.size(), n);
    double total = 0.0;
    for (size_t k = 0; k < n; ++k) {
      const size_t pk = static_cast<size_t>(perm[k]);
      total += c[k * n + pk];
      for (size_t l = 0; l < n; ++l) {
        if (k == l) continue;
        const size_t pl = static_cast<size_t>(perm[l]);
        total += a[pk * n + pl] * b[k * n + l];
      }
    }
    return total;
  }
};

}  // namespace hta::reference

#endif  // HTA_TESTS_REFERENCE_DENSE_QAP_H_
