#include "qap/qap_view.h"

#include <algorithm>

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

}  // namespace hta
