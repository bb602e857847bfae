#include "assign/hta_solver.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "assign/auditor.h"
#include "matching/lsap.h"
#include "matching/max_weight_matching.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/trace.h"

namespace hta {

namespace {

/// The auxiliary LSAP profit f_{k,l} = bM(t_k) * degA_l + c_{k,l}
/// (Algorithm 1, Line 10), tabulated once per solve. Both degA_l and
/// c_{k,l} depend on the column l only through the worker clique
/// q = l / Xmax, so one n x |W| table replaces per-probe Relevance()
/// evaluation: f_{k, q*Xmax} at [q * n + k], the group-major layout
/// both LSAP solvers read (matching/lsap.h). The c part comes from one
/// batched rectangular relevance sweep; entries use exactly the
/// arithmetic of QapView::C / DegA, so profits are bit-identical to
/// evaluating the view entry by entry.
std::vector<double> TabulatedAuxiliaryProfit(const QapView& view,
                                             const std::vector<double>& bm,
                                             size_t max_threads) {
  const HtaProblem& problem = view.problem();
  const size_t xmax = problem.xmax();
  const size_t n = view.n();
  const size_t worker_count = problem.worker_count();
  std::vector<double> deg_a(worker_count);
  for (size_t q = 0; q < worker_count; ++q) {
    deg_a[q] = view.DegA(q * xmax);
  }
  // c_{k, q*xmax} = beta_q * rel(k, q) * (xmax - 1), with the same
  // left-to-right multiplication chain as QapView::C; padding rows have
  // c = 0.
  const size_t task_count = view.task_count();
  std::vector<double> rel;
  problem.FillRelevanceTable(&rel, max_threads);
  const double norm = static_cast<double>(xmax) - 1.0;
  std::vector<double> profit(worker_count * n);
  ParallelFor(
      0, n, /*grain=*/64,
      [&](size_t k) {
        for (size_t q = 0; q < worker_count; ++q) {
          const double c = k < task_count
                               ? problem.workers()[q].weights().beta *
                                     rel[k * worker_count + q] * norm
                               : 0.0;
          profit[q * n + k] = bm[k] * deg_a[q] + c;
        }
      },
      max_threads);
  return profit;
}

/// Fixed linear bounds over (0, 1] for the per-solve certified ratio:
/// 0.05, 0.10, ..., 1.00.
std::vector<double> CertifiedRatioBounds() {
  std::vector<double> bounds(20);
  for (size_t i = 0; i < bounds.size(); ++i) {
    bounds[i] = static_cast<double>(i + 1) / 20.0;
  }
  return bounds;
}

/// Tracks clique membership during the best-of-two swap pass so that
/// objective deltas are O(Xmax) per candidate swap.
class CliqueMembership {
 public:
  CliqueMembership(const QapView& view, const std::vector<int32_t>& perm)
      : members_(view.problem().worker_count()) {
    for (size_t k = 0; k < perm.size(); ++k) {
      const int32_t q = view.WorkerOfVertex(static_cast<size_t>(perm[k]));
      if (q >= 0) members_[static_cast<size_t>(q)].push_back(k);
    }
  }

  const std::vector<size_t>& Members(int32_t q) const {
    return members_[static_cast<size_t>(q)];
  }

  void Move(size_t task_out, size_t task_in, int32_t q) {
    if (q < 0) return;
    auto& m = members_[static_cast<size_t>(q)];
    auto it = std::find(m.begin(), m.end(), task_out);
    HTA_DCHECK(it != m.end());
    *it = task_in;
  }

 private:
  std::vector<std::vector<size_t>> members_;
};

/// Objective change from exchanging the vertices of tasks u and v
/// (perm[u] <-> perm[v]).
double SwapDelta(const QapView& view, const CliqueMembership& cliques,
                 const std::vector<int32_t>& perm, size_t u, size_t v) {
  const size_t pu = static_cast<size_t>(perm[u]);
  const size_t pv = static_cast<size_t>(perm[v]);
  const int32_t qu = view.WorkerOfVertex(pu);
  const int32_t qv = view.WorkerOfVertex(pv);
  double delta = view.C(u, pv) + view.C(v, pu) - view.C(u, pu) -
                 view.C(v, pv);
  if (qu == qv) return delta;  // Same clique: quadratic part unchanged.
  const auto& workers = view.problem().workers();
  if (qu >= 0) {
    const double alpha = workers[static_cast<size_t>(qu)].weights().alpha;
    double gain = 0.0;
    for (size_t m : cliques.Members(qu)) {
      if (m == u) continue;
      gain += view.B(v, m) - view.B(u, m);
    }
    delta += 2.0 * alpha * gain;
  }
  if (qv >= 0) {
    const double alpha = workers[static_cast<size_t>(qv)].weights().alpha;
    double gain = 0.0;
    for (size_t m : cliques.Members(qv)) {
      if (m == v) continue;
      gain += view.B(u, m) - view.B(v, m);
    }
    delta += 2.0 * alpha * gain;
  }
  return delta;
}

}  // namespace

Assignment ExtractAssignment(const QapView& view,
                             const std::vector<int32_t>& perm) {
  HTA_CHECK_EQ(perm.size(), view.n());
  Assignment assignment;
  assignment.bundles.assign(view.problem().worker_count(), {});
  for (size_t k = 0; k < view.task_count(); ++k) {
    const int32_t q = view.WorkerOfVertex(static_cast<size_t>(perm[k]));
    if (q >= 0) {
      assignment.bundles[static_cast<size_t>(q)].push_back(
          static_cast<TaskIndex>(k));
    }
  }
  return assignment;
}

Result<HtaSolveResult> SolveHta(const HtaProblem& problem,
                                const HtaSolverOptions& options) {
  static metrics::Counter solves("solver.solves");
  static metrics::Counter tasks_solved("solver.tasks");
  static metrics::Counter matched_pairs_total("solver.matched_pairs");
  static metrics::Counter swaps_applied("solver.swaps_applied");
  static metrics::Histogram matching_latency("solver.matching_seconds",
                                             metrics::LatencyBucketsSeconds());
  static metrics::Histogram lsap_latency("solver.lsap_seconds",
                                         metrics::LatencyBucketsSeconds());
  static metrics::Histogram solve_latency("solver.total_seconds",
                                          metrics::LatencyBucketsSeconds());
  static metrics::Histogram certified_ratio("solver.certified_ratio",
                                            CertifiedRatioBounds());
  trace::PhaseSpan solve_span("solver.solve", &solve_latency);
  solves.Add();
  WallTimer total_timer;
  const QapView view(&problem);
  const size_t n = view.n();
  tasks_solved.Add(view.task_count());

  // Phase 1 (Line 2): maximum-weight matching M_B over task diversity.
  WallTimer phase_timer;
  HtaSolveStats stats;
  GraphMatching mb;
  {
    trace::PhaseSpan matching_span("solver.matching", &matching_latency);
    mb = GreedyMaxWeightMatching(
        n, BuildDiversityEdges(problem.oracle(), options.threads),
        options.threads);
  }
  stats.matching_seconds = phase_timer.ElapsedSeconds();
  stats.matched_pairs = mb.edges.size();
  matched_pairs_total.Add(mb.edges.size());

  // Lines 3-8: bM(t_k) = weight of the M_B edge covering t_k, else 0.
  std::vector<double> bm(n, 0.0);
  for (const auto& [u, v] : mb.edges) {
    const double w =
        problem.oracle()(static_cast<TaskIndex>(u), static_cast<TaskIndex>(v));
    bm[u] = w;
    bm[v] = w;
  }

  // Lines 9-11: the auxiliary LSAP over the tabulated profits (built
  // row-parallel from one batched relevance sweep).
  phase_timer.Restart();
  LsapSolution lsap;
  {
    trace::PhaseSpan lsap_span("solver.lsap", &lsap_latency);
    const std::vector<double> profit =
        TabulatedAuxiliaryProfit(view, bm, options.threads);
    // Worker q's Xmax columns share one profit per task.
    switch (options.lsap) {
      case LsapMethod::kExactJv:
        lsap = SolveLsapExact(n, profit, problem.worker_count(),
                              problem.xmax());
        break;
      case LsapMethod::kGreedy:
        lsap = SolveLsapGreedy(n, profit, problem.worker_count(),
                               problem.xmax());
        break;
    }
  }
  stats.lsap_seconds = phase_timer.ElapsedSeconds();

  // Optimality certificate (Theorem 4 / Eq. 18): the MAXQAP optimum,
  // and with it the HTA optimum, is at most twice the optimal
  // auxiliary-LSAP profit; a greedy LSAP profit is within a factor 2 of
  // that optimum.
  const double bound_factor =
      options.lsap == LsapMethod::kGreedy ? 4.0 : 2.0;
  stats.optimum_upper_bound = bound_factor * lsap.profit;

  // Lines 12-16: permute matched pairs.
  std::vector<int32_t> perm = std::move(lsap.row_to_col);
  Rng rng(options.seed);
  switch (options.swap) {
    case SwapMode::kNone:
      break;
    case SwapMode::kRandom:
      for (const auto& [u, v] : mb.edges) {
        if (rng.NextBool(0.5)) {
          std::swap(perm[u], perm[v]);
          swaps_applied.Add();
        }
      }
      break;
    case SwapMode::kBestOfTwo: {
      CliqueMembership cliques(view, perm);
      for (const auto& [u, v] : mb.edges) {
        if (SwapDelta(view, cliques, perm, u, v) > 0.0) {
          const int32_t qu = view.WorkerOfVertex(static_cast<size_t>(perm[u]));
          const int32_t qv = view.WorkerOfVertex(static_cast<size_t>(perm[v]));
          if (qu != qv) {
            cliques.Move(u, v, qu);
            cliques.Move(v, u, qv);
          }
          std::swap(perm[u], perm[v]);
          swaps_applied.Add();
        }
      }
      break;
    }
  }

  // Lines 17-18 (Eq. 7): back to per-worker bundles.
  HtaSolveResult result;
  result.assignment = ExtractAssignment(view, perm);
  // The certificate scores what workers receive: Eq. 3 of the bundles.
  stats.motivation = TotalMotivation(problem, result.assignment);
  stats.certified_ratio = stats.optimum_upper_bound > 0.0
                              ? stats.motivation / stats.optimum_upper_bound
                              : 1.0;
  certified_ratio.Observe(stats.certified_ratio);
  stats.total_seconds = total_timer.ElapsedSeconds();
  result.stats = stats;

  HTA_DCHECK(ValidateAssignment(problem, result.assignment).ok());
  if (AuditEnabled()) {
    HTA_RETURN_IF_ERROR(
        AssignmentAuditor(problem).Audit(result.assignment, stats.motivation));
  }
  return result;
}

Result<HtaSolveResult> SolveHtaWarmStart(const HtaProblem& problem,
                                         const Assignment& seed,
                                         const LocalSearchOptions& options) {
  static metrics::Counter warm_solves("solver.warm_starts");
  static metrics::Counter repaired_slots("solver.warm_repaired_slots");
  static metrics::Histogram warm_latency("solver.warm_start_seconds",
                                         metrics::LatencyBucketsSeconds());
  trace::PhaseSpan warm_span("solver.warm_start", &warm_latency);
  warm_solves.Add();
  WallTimer total_timer;
  if (AuditEnabled()) {
    // The seed is a repaired carry-over built outside the solver; a
    // structural violation here (duplicate task, overfull bundle) must
    // surface before local search silently "fixes" the objective on top
    // of it. The objective claim is checked after refinement.
    HTA_RETURN_IF_ERROR(AssignmentAuditor(problem).CheckStructure(seed));
  }
  HTA_ASSIGN_OR_RETURN(LocalSearchResult refined,
                       ImproveAssignment(problem, seed, options));
  repaired_slots.Add(refined.inserts_applied);

  HtaSolveResult result;
  result.assignment = std::move(refined.assignment);
  result.stats.motivation = refined.motivation;
  result.stats.warm_repaired_slots = refined.inserts_applied;
  result.stats.total_seconds = total_timer.ElapsedSeconds();
  if (AuditEnabled()) {
    HTA_RETURN_IF_ERROR(AssignmentAuditor(problem).Audit(
        result.assignment, result.stats.motivation));
  }
  return result;
}

Result<HtaSolveResult> SolveHtaApp(const HtaProblem& problem, uint64_t seed) {
  HtaSolverOptions options;
  options.lsap = LsapMethod::kExactJv;
  options.seed = seed;
  return SolveHta(problem, options);
}

Result<HtaSolveResult> SolveHtaGre(const HtaProblem& problem, uint64_t seed) {
  HtaSolverOptions options;
  options.lsap = LsapMethod::kGreedy;
  options.seed = seed;
  return SolveHta(problem, options);
}

std::string SolverName(const HtaSolverOptions& options) {
  std::string name;
  switch (options.lsap) {
    case LsapMethod::kExactJv:
      name = "hta-app";
      break;
    case LsapMethod::kGreedy:
      name = "hta-gre";
      break;
  }
  switch (options.swap) {
    case SwapMode::kRandom:
      break;
    case SwapMode::kBestOfTwo:
      name += "+best2";
      break;
    case SwapMode::kNone:
      name += "+noswap";
      break;
  }
  return name;
}

}  // namespace hta
