#ifndef HTA_QAP_QAP_VIEW_H_
#define HTA_QAP_QAP_VIEW_H_

#include <cstdint>
#include <vector>

#include "qap/hta_problem.h"

namespace hta {

/// The MAXQAP view of an HTA instance (Section IV-A).
///
/// The paper maps HTA to the maximum quadratic assignment problem over
/// three n x n matrices:
///   A (Eq. 4) — adjacency of |W| disjoint Xmax-cliques (one per worker,
///               edges labeled alpha_w) plus isolated vertices;
///   B (Eq. 5) — pairwise task diversities d(t_k, t_l);
///   C (Eq. 6) — relevance profits beta_w * rel(w, t_k) * (Xmax - 1) on
///               worker-owned columns. (The guard printed in Eq. 6 is a
///               typo; per Example 1 / Fig. 1 the nonzero columns are
///               l < |W| * Xmax, which is what this class implements.)
///
/// This class exposes A, B, C *implicitly* — O(1) storage and O(1)
/// entry access — which is what lets HTA-APP/HTA-GRE run at |T| = 10^4
/// without materializing 10^8-entry matrices. DenseQapMatrices (below)
/// materializes them for tests and the worked example.
///
/// Padding: the mapping needs n >= |W| * Xmax vertices. When there are
/// fewer tasks than clique slots, virtual padding tasks (indices in
/// [task_count, n)) are added with zero diversity to everything and
/// zero relevance; they never contribute profit and are dropped when a
/// permutation is converted back to bundles. With padding present the
/// QAP objective uses the (Xmax - 1) relevance normalizer of Eq. 6 even
/// though bundles may end up smaller than Xmax, so the Eq. 8 identity
/// with Eq. 3 motivation holds exactly only for unpadded instances —
/// see qap_objective.h.
class QapView {
 public:
  explicit QapView(const HtaProblem* problem);

  /// Matrix dimension n = max(|T|, |W| * Xmax).
  size_t n() const { return n_; }

  /// Number of real (non-padding) tasks.
  size_t task_count() const { return problem_->task_count(); }

  /// True iff index k refers to a virtual padding task.
  bool IsPaddingTask(size_t k) const { return k >= problem_->task_count(); }

  /// The worker owning vertex/column l in matrix A, or -1 for isolated
  /// vertices. Worker q owns the Xmax consecutive vertices
  /// [q * Xmax, (q+1) * Xmax).
  int32_t WorkerOfVertex(size_t l) const {
    const size_t q = l / problem_->xmax();
    return q < problem_->worker_count() ? static_cast<int32_t>(q) : -1;
  }

  /// a_{k,l} (Eq. 4). Diagonal entries are 0 (cliques have no loops).
  double A(size_t k, size_t l) const {
    if (k == l) return 0.0;
    const int32_t q = WorkerOfVertex(l);
    if (q < 0 || WorkerOfVertex(k) != q) return 0.0;
    return problem_->workers()[static_cast<size_t>(q)].weights().alpha;
  }

  /// b_{k,l} (Eq. 5): pairwise task diversity; 0 on/beyond padding.
  double B(size_t k, size_t l) const {
    if (k == l) return 0.0;
    if (IsPaddingTask(k) || IsPaddingTask(l)) return 0.0;
    return problem_->oracle()(static_cast<TaskIndex>(k),
                              static_cast<TaskIndex>(l));
  }

  /// c_{k,l} (Eq. 6, with the guard fixed as described above).
  double C(size_t k, size_t l) const {
    if (IsPaddingTask(k)) return 0.0;
    const int32_t q = WorkerOfVertex(l);
    if (q < 0) return 0.0;
    const Worker& w = problem_->workers()[static_cast<size_t>(q)];
    return w.weights().beta *
           problem_->Relevance(static_cast<TaskIndex>(k),
                               static_cast<WorkerIndex>(q)) *
           (static_cast<double>(problem_->xmax()) - 1.0);
  }

  /// Row/column degree sum of A: degA_l = sum_k a_{k,l}
  /// = alpha_w * (Xmax - 1) on worker vertices, 0 on isolated ones
  /// (Algorithm 1, Line 4).
  double DegA(size_t l) const {
    const int32_t q = WorkerOfVertex(l);
    if (q < 0) return 0.0;
    return problem_->workers()[static_cast<size_t>(q)].weights().alpha *
           (static_cast<double>(problem_->xmax()) - 1.0);
  }

  /// The MAXQAP objective of a permutation pi (task k -> vertex pi(k)):
  ///   sum_{k != l} a_{pi(k),pi(l)} b_{k,l} + sum_k c_{k,pi(k)}
  /// Computed per worker clique in O(|W| * Xmax^2 + n). The linear
  /// term and the per-clique quadratic terms are evaluated as blocked
  /// parallel reductions on the global pool (`max_threads` caps the
  /// threads used; 0 = pool size, 1 = serial); block partials combine
  /// in fixed block order, so the value is bit-identical for any
  /// thread count.
  double Objective(const std::vector<int32_t>& perm,
                   size_t max_threads = 0) const;

  const HtaProblem& problem() const { return *problem_; }

 private:
  const HtaProblem* problem_;
  size_t n_;
};

/// Dense materialization of A, B, C for small instances (tests, worked
/// example E8). Row-major n x n.
struct DenseQapMatrices {
  size_t n = 0;
  std::vector<double> a;
  std::vector<double> b;
  std::vector<double> c;

  /// Materializes A, B, C from the implicit view, row-parallel on the
  /// global pool (rows write disjoint slices; bit-identical for any
  /// thread count). The B rows of keyword-derived instances come from
  /// the one-vs-many SoA kernel (core/packed_set.h); precomputed /
  /// dense-matrix oracles keep the per-entry view reads.
  static DenseQapMatrices FromView(const QapView& view,
                                   size_t max_threads = 0);

  /// Objective of a permutation evaluated from the dense matrices;
  /// cross-checked against QapView::Objective in tests.
  double Objective(const std::vector<int32_t>& perm) const;
};

}  // namespace hta

#endif  // HTA_QAP_QAP_VIEW_H_
