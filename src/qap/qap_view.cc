#include "qap/qap_view.h"

#include <algorithm>

#include "core/packed_set.h"
#include "util/parallel.h"

namespace hta {

namespace {

/// Block grains for the Objective reductions. Fixed constants (never
/// derived from the thread count) so the blocked floating-point sums
/// are reproducible across HTA_THREADS settings; small instances fit
/// in one block and keep the exact serial summation order.
constexpr size_t kLinearGrain = 512;   // Tasks per linear-term block.
constexpr size_t kCliqueGrain = 8;     // Worker cliques per block.

}  // namespace

QapView::QapView(const HtaProblem* problem) : problem_(problem) {
  HTA_CHECK(problem != nullptr);
  n_ = std::max(problem->task_count(),
                problem->worker_count() * problem->xmax());
}

std::vector<size_t> QapView::WorkerColumns() const {
  const size_t count =
      std::min(n_, problem_->worker_count() * problem_->xmax());
  std::vector<size_t> cols(count);
  for (size_t l = 0; l < count; ++l) cols[l] = l;
  return cols;
}

double QapView::Objective(const std::vector<int32_t>& perm,
                          size_t max_threads) const {
  HTA_CHECK_EQ(perm.size(), n_);
  // Group tasks by the worker clique their vertex lands in (serial
  // O(n); the push_back order k-ascending is what the quadratic pass
  // below sums over).
  std::vector<std::vector<size_t>> tasks_of_worker(problem_->worker_count());
  for (size_t k = 0; k < n_; ++k) {
    const size_t vertex = static_cast<size_t>(perm[k]);
    HTA_CHECK_LT(vertex, n_);
    if (IsPaddingTask(k)) continue;
    const int32_t q = WorkerOfVertex(vertex);
    if (q >= 0) tasks_of_worker[static_cast<size_t>(q)].push_back(k);
  }
  const size_t tasks = problem_->task_count() < n_ ? problem_->task_count()
                                                   : n_;
  const double linear = ParallelReduce(
      0, tasks, kLinearGrain, 0.0,
      [&](size_t k_begin, size_t k_end) {
        double sum = 0.0;
        for (size_t k = k_begin; k < k_end; ++k) {
          sum += C(k, static_cast<size_t>(perm[k]));
        }
        return sum;
      },
      [](double acc, double partial) { return acc + partial; }, max_threads);
  const double quadratic = ParallelReduce(
      0, tasks_of_worker.size(), kCliqueGrain, 0.0,
      [&](size_t q_begin, size_t q_end) {
        double sum = 0.0;
        for (size_t q = q_begin; q < q_end; ++q) {
          const double alpha = problem_->workers()[q].weights().alpha;
          const auto& members = tasks_of_worker[q];
          double clique_diversity = 0.0;
          for (size_t x = 0; x < members.size(); ++x) {
            for (size_t y = x + 1; y < members.size(); ++y) {
              clique_diversity += B(members[x], members[y]);
            }
          }
          // Each unordered pair is counted twice in sum_{k != l}.
          sum += 2.0 * alpha * clique_diversity;
        }
        return sum;
      },
      [](double acc, double partial) { return acc + partial; }, max_threads);
  return quadratic + linear;
}

DenseQapMatrices DenseQapMatrices::FromView(const QapView& view,
                                            size_t max_threads) {
  DenseQapMatrices m;
  m.n = view.n();
  m.a.resize(m.n * m.n);
  m.b.resize(m.n * m.n);
  m.c.resize(m.n * m.n);
  // Batched B rows only when distances come from keyword vectors; a
  // precomputed (or dense-matrix) oracle answers from its float cache,
  // which the kernel must not bypass.
  const bool batched = !view.problem().oracle().is_precomputed();
  // PackedRows works in both local-vector and shared-subset modes
  // (gathered rows are bitwise identical to re-packed ones).
  const PackedSetMatrix packed = batched
                                     ? view.problem().oracle().PackedRows()
                                     : PackedSetMatrix();
  const size_t tasks = view.task_count();
  ParallelFor(
      0, m.n, /*grain=*/8,
      [&](size_t k) {
        for (size_t l = 0; l < m.n; ++l) {
          m.a[k * m.n + l] = view.A(k, l);
          m.c[k * m.n + l] = view.C(k, l);
        }
        if (batched) {
          // Row k of B via the one-vs-many kernel: identical doubles
          // (same popcounts, same arithmetic), diagonal set to 0 by the
          // kernel, padding columns/rows stay at the resize() zeros —
          // exactly view.B. Serial inside the row-parallel loop.
          if (k < tasks) {
            OneVsManyDistances(packed, k, view.problem().distance_kind(),
                               &m.b[k * m.n], /*max_threads=*/1);
          }
          return;
        }
        for (size_t l = 0; l < m.n; ++l) {
          m.b[k * m.n + l] = view.B(k, l);
        }
      },
      max_threads);
  return m;
}

double DenseQapMatrices::Objective(const std::vector<int32_t>& perm) const {
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

}  // namespace hta
