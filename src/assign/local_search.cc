#include "assign/local_search.h"

#include <algorithm>
#include <cmath>
#include <cstddef>

#include "assign/auditor.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace hta {

namespace {

/// Local-search observability. Probe counters are incremented once per
/// fixed scan block (never per thread), so totals are exact and
/// independent of HTA_THREADS; pass/move totals are folded in from the
/// result struct after the pass loop finishes.
struct LocalSearchMetrics {
  metrics::Counter runs{"local_search.runs"};
  metrics::Counter passes{"local_search.passes"};
  metrics::Counter moves_applied{"local_search.moves_applied"};
  metrics::Counter replace_probes{"local_search.replace_probes"};
  metrics::Counter exchange_probes{"local_search.exchange_probes"};
  metrics::Counter insert_probes{"local_search.insert_probes"};
  metrics::Histogram seconds{"local_search.seconds",
                             metrics::LatencyBucketsSeconds()};
};

LocalSearchMetrics& Lsm() {
  static LocalSearchMetrics* m = new LocalSearchMetrics();
  return *m;
}

/// Strict improvement threshold shared by every scan.
constexpr double kImprovementEps = 1e-12;

/// Relative margin for argmax scans: a later candidate only displaces
/// the incumbent when its delta is better by this margin. Exact-
/// arithmetic ties between candidates (common with rational Jaccard /
/// Dice distances) can round to FP values that differ by a few ulps
/// between the incremental tables and a from-scratch evaluation (the
/// naive deltas the equivalence tests replay); the margin resolves such
/// ties to the same (lowest) scan index either way, so the incremental
/// search reproduces a naive-delta scan move-for-move.
constexpr double kTieRelTolerance = 1e-9;

/// Tolerant "strictly better" used by every best-candidate selection.
inline bool StrictlyBetter(double delta, double best) {
  const double scale = std::max({1.0, std::fabs(delta), std::fabs(best)});
  return delta > best + kTieRelTolerance * scale;
}

/// Sentinel candidate index for "no improving candidate found".
constexpr size_t kNoCandidate = static_cast<size_t>(-1);

/// Unassigned candidates per fixed block of a scan.
constexpr size_t kCandidateGrain = 128;

/// Partner workers per fixed block of an exchange scan.
constexpr size_t kWorkerScanGrain = 2;

/// Tasks per fixed block of the incremental div_sum table updates.
constexpr size_t kTableGrain = 256;

/// Best replace/insert candidate of one scan row (delta, candidate
/// position in the unassigned list). Folding with StrictlyBetter in
/// ascending block order keeps the lowest index on (near-)ties.
struct BestCandidate {
  double delta = kImprovementEps;
  size_t index = kNoCandidate;
};

/// Best exchange partner of one scan row.
struct BestExchange {
  double delta = kImprovementEps;
  WorkerIndex q2 = 0;
  size_t p2 = kNoCandidate;
};

/// Deterministic replace scan: probe all candidates for one slot
/// concurrently, apply the best improving one, move to the next slot.
bool ReplacePassBest(const HtaProblem& problem,
                     const LocalSearchOptions& options, Assignment* assignment,
                     std::vector<TaskIndex>* unassigned,
                     BundleStatsCache* eval, LocalSearchResult* result) {
  if (unassigned->empty()) return false;
  bool improved = false;
  const size_t worker_count = problem.worker_count();
  for (WorkerIndex q = 0; q < worker_count; ++q) {
    TaskBundle& bundle = assignment->bundles[q];
    for (size_t pos = 0; pos < bundle.size(); ++pos) {
      const BestCandidate best = ParallelReduce<BestCandidate>(
          0, unassigned->size(), kCandidateGrain, BestCandidate{},
          [&](size_t begin, size_t end) {
            Lsm().replace_probes.Add(end - begin);
            BestCandidate local;
            for (size_t u = begin; u < end; ++u) {
              const double delta = eval->ReplaceDelta(q, pos, (*unassigned)[u]);
              if (StrictlyBetter(delta, local.delta)) {
                local = BestCandidate{delta, u};
              }
            }
            return local;
          },
          [](BestCandidate acc, BestCandidate partial) {
            return StrictlyBetter(partial.delta, acc.delta) ? partial : acc;
          },
          options.threads);
      if (best.index == kNoCandidate) continue;
      const TaskIndex out = bundle[pos];
      eval->ApplyReplace(q, pos, (*unassigned)[best.index]);
      (*unassigned)[best.index] = out;
      result->applied_delta += best.delta;
      ++result->improving_moves;
      improved = true;
    }
  }
  return improved;
}

/// Deterministic exchange scan: for each source slot, probe every
/// partner slot of every later worker concurrently and apply the best
/// improving swap.
bool ExchangePassBest(const HtaProblem& problem,
                      const LocalSearchOptions& options, Assignment* assignment,
                      BundleStatsCache* eval, LocalSearchResult* result) {
  bool improved = false;
  const size_t worker_count = problem.worker_count();
  for (WorkerIndex q1 = 0; q1 + 1 < worker_count; ++q1) {
    TaskBundle& b1 = assignment->bundles[q1];
    for (size_t p1 = 0; p1 < b1.size(); ++p1) {
      const BestExchange best = ParallelReduce<BestExchange>(
          q1 + 1, worker_count, kWorkerScanGrain, BestExchange{},
          [&](size_t begin, size_t end) {
            BestExchange local;
            size_t block_probes = 0;
            for (size_t q2 = begin; q2 < end; ++q2) {
              const size_t b2_size = assignment->bundles[q2].size();
              block_probes += b2_size;
              for (size_t p2 = 0; p2 < b2_size; ++p2) {
                const double delta = eval->ExchangeDelta(
                    q1, p1, static_cast<WorkerIndex>(q2), p2);
                if (StrictlyBetter(delta, local.delta)) {
                  local =
                      BestExchange{delta, static_cast<WorkerIndex>(q2), p2};
                }
              }
            }
            Lsm().exchange_probes.Add(block_probes);
            return local;
          },
          [](BestExchange acc, BestExchange partial) {
            return StrictlyBetter(partial.delta, acc.delta) ? partial : acc;
          },
          options.threads);
      if (best.p2 == kNoCandidate) continue;
      TaskBundle& b2 = assignment->bundles[best.q2];
      const TaskIndex t1 = b1[p1];
      const TaskIndex t2 = b2[best.p2];
      eval->ApplyReplace(q1, p1, t2);
      eval->ApplyReplace(best.q2, best.p2, t1);
      result->applied_delta += best.delta;
      ++result->improving_moves;
      improved = true;
    }
  }
  return improved;
}

/// Insert scan: greedy best-candidate with lowest-index ties, probing
/// candidates concurrently. With non-negative diversity and relevance
/// an insert never hurts (delta >= 0), so spare capacity is always
/// filled; only strictly positive deltas count as improving moves.
bool InsertPass(const HtaProblem& problem, const LocalSearchOptions& options,
                Assignment* assignment, std::vector<TaskIndex>* unassigned,
                BundleStatsCache* eval, LocalSearchResult* result) {
  struct InsertBest {
    double delta = -1.0;
    size_t index = kNoCandidate;
  };
  bool improved = false;
  const size_t worker_count = problem.worker_count();
  for (WorkerIndex q = 0; q < worker_count; ++q) {
    TaskBundle& bundle = assignment->bundles[q];
    while (bundle.size() < problem.xmax() && !unassigned->empty()) {
      const InsertBest best = ParallelReduce<InsertBest>(
          0, unassigned->size(), kCandidateGrain, InsertBest{},
          [&](size_t begin, size_t end) {
            Lsm().insert_probes.Add(end - begin);
            InsertBest local;
            for (size_t u = begin; u < end; ++u) {
              const double delta = eval->InsertDelta(q, (*unassigned)[u]);
              if (StrictlyBetter(delta, local.delta)) {
                local = InsertBest{delta, u};
              }
            }
            return local;
          },
          [](InsertBest acc, InsertBest partial) {
            return StrictlyBetter(partial.delta, acc.delta) ? partial : acc;
          },
          options.threads);
      if (best.index == kNoCandidate || best.delta < 0.0) break;
      eval->ApplyInsert(q, (*unassigned)[best.index]);
      (*unassigned)[best.index] = unassigned->back();
      unassigned->pop_back();
      result->applied_delta += best.delta;
      ++result->inserts_applied;
      if (best.delta > kImprovementEps) {
        ++result->improving_moves;
        improved = true;
      }
    }
  }
  return improved;
}

/// The pass loop. With `auditor` non-null, every completed pass is
/// validated: structure (C1/C2, index bounds) plus two independent
/// objective claims — the applied-delta accumulator and the cache's
/// maintained sums — against the from-scratch Eq. 3 recompute.
Status RunPasses(const HtaProblem& problem, const LocalSearchOptions& options,
                 Assignment* assignment, std::vector<TaskIndex>* unassigned,
                 BundleStatsCache* eval, const AssignmentAuditor* auditor,
                 LocalSearchResult* result) {
  for (result->passes = 0; result->passes < options.max_passes;
       ++result->passes) {
    // Every pass runs all three moves; `|=` keeps each call unconditional.
    bool improved_this_pass = ReplacePassBest(problem, options, assignment,
                                              unassigned, eval, result);
    improved_this_pass |=
        ExchangePassBest(problem, options, assignment, eval, result);
    improved_this_pass |=
        InsertPass(problem, options, assignment, unassigned, eval, result);
    if (auditor != nullptr) {
      HTA_RETURN_IF_ERROR(auditor->Audit(
          *assignment, result->initial_motivation + result->applied_delta));
      HTA_RETURN_IF_ERROR(auditor->CheckObjective(
          *assignment, eval->CachedTotalMotivation()));
    }
    if (!improved_this_pass) {
      result->reached_local_optimum = true;
      break;
    }
  }
  return Status::OK();
}

}  // namespace

BundleStatsCache::BundleStatsCache(const HtaProblem& problem,
                                   Assignment* assignment, size_t max_threads)
    : problem_(&problem),
      assignment_(assignment),
      max_threads_(max_threads),
      task_count_(problem.task_count()),
      worker_count_(problem.worker_count()) {
  const TaskDistanceOracle& d = problem.oracle();
  problem.FillRelevanceTable(&rel_, max_threads_);
  div_sum_.assign(worker_count_ * task_count_, 0.0);
  bundle_div_.assign(worker_count_, 0.0);
  bundle_rel_.assign(worker_count_, 0.0);
  for (size_t q = 0; q < worker_count_; ++q) {
    const TaskBundle& bundle = assignment_->bundles[q];
    ParallelFor(
        0, task_count_, kTableGrain,
        [&](size_t t) {
          double sum = 0.0;
          for (TaskIndex m : bundle) sum += d(static_cast<TaskIndex>(t), m);
          div_sum_[q * task_count_ + t] = sum;
        },
        max_threads_);
    bundle_div_[q] = SetDiversity(bundle, d);
    double rel_sum = 0.0;
    for (TaskIndex m : bundle) {
      rel_sum += rel_[static_cast<size_t>(m) * worker_count_ + q];
    }
    bundle_rel_[q] = rel_sum;
  }
}

double BundleStatsCache::ReplaceDelta(WorkerIndex worker, size_t pos,
                                      TaskIndex in) const {
  const TaskBundle& bundle = assignment_->bundles[worker];
  HTA_DCHECK_LT(pos, bundle.size());
  const TaskIndex out = bundle[pos];
  const MotivationWeights& w = problem_->workers()[worker].weights();
  const double* row = div_sum_.data() + static_cast<size_t>(worker) *
                                            task_count_;
  // Σ_{m != pos} d(in, m) = div_sum[in] - d(in, out);
  // Σ_{m != pos} d(out, m) = div_sum[out]  (d(out, out) = 0).
  const double diversity_delta =
      (row[in] - problem_->oracle()(in, out)) - row[out];
  const double relevance_delta =
      rel_[static_cast<size_t>(in) * worker_count_ + worker] -
      rel_[static_cast<size_t>(out) * worker_count_ + worker];
  const double size_minus_one = static_cast<double>(bundle.size()) - 1.0;
  return 2.0 * w.alpha * diversity_delta +
         w.beta * size_minus_one * relevance_delta;
}

double BundleStatsCache::ExchangeDelta(WorkerIndex q1, size_t p1,
                                       WorkerIndex q2, size_t p2) const {
  const TaskBundle& b1 = assignment_->bundles[q1];
  const TaskBundle& b2 = assignment_->bundles[q2];
  return ReplaceDelta(q1, p1, b2[p2]) + ReplaceDelta(q2, p2, b1[p1]);
}

double BundleStatsCache::InsertDelta(WorkerIndex worker, TaskIndex in) const {
  const TaskBundle& bundle = assignment_->bundles[worker];
  const MotivationWeights& w = problem_->workers()[worker].weights();
  const double diversity_gain =
      div_sum_[static_cast<size_t>(worker) * task_count_ + in];
  const double rel_in = rel_[static_cast<size_t>(in) * worker_count_ + worker];
  // after - before simplifies to a subtraction-free form — with
  // non-negative distances and relevance the delta is >= 0 even in
  // floating point, so inserts can never appear to hurt:
  //   2α·Σ_m d(in, m) + β·(TR(T') + |T'|·rel(in)).
  return 2.0 * w.alpha * diversity_gain +
         w.beta * (bundle_rel_[worker] +
                   static_cast<double>(bundle.size()) * rel_in);
}

void BundleStatsCache::ApplyReplace(WorkerIndex worker, size_t pos,
                                    TaskIndex in) {
  TaskBundle& bundle = assignment_->bundles[worker];
  HTA_DCHECK_LT(pos, bundle.size());
  const TaskIndex out = bundle[pos];
  const TaskDistanceOracle& d = problem_->oracle();
  double* row = div_sum_.data() + static_cast<size_t>(worker) * task_count_;
  bundle_div_[worker] += (row[in] - d(in, out)) - row[out];
  bundle_rel_[worker] +=
      rel_[static_cast<size_t>(in) * worker_count_ + worker] -
      rel_[static_cast<size_t>(out) * worker_count_ + worker];
  ParallelFor(
      0, task_count_, kTableGrain,
      [&](size_t t) {
        row[t] += d(static_cast<TaskIndex>(t), in) -
                  d(static_cast<TaskIndex>(t), out);
      },
      max_threads_);
  bundle[pos] = in;
}

double BundleStatsCache::CachedTotalMotivation() const {
  double total = 0.0;
  for (size_t q = 0; q < worker_count_; ++q) {
    const MotivationWeights& w = problem_->workers()[q].weights();
    const double size =
        static_cast<double>(assignment_->bundles[q].size());
    total += 2.0 * w.alpha * bundle_div_[q] +
             w.beta * (size - 1.0) * bundle_rel_[q];
  }
  return total;
}

void BundleStatsCache::ApplyInsert(WorkerIndex worker, TaskIndex in) {
  TaskBundle& bundle = assignment_->bundles[worker];
  const TaskDistanceOracle& d = problem_->oracle();
  double* row = div_sum_.data() + static_cast<size_t>(worker) * task_count_;
  bundle_div_[worker] += row[in];
  bundle_rel_[worker] += rel_[static_cast<size_t>(in) * worker_count_ + worker];
  ParallelFor(
      0, task_count_, kTableGrain,
      [&](size_t t) { row[t] += d(static_cast<TaskIndex>(t), in); },
      max_threads_);
  bundle.push_back(in);
}

Result<LocalSearchResult> ImproveAssignment(
    const HtaProblem& problem, const Assignment& initial,
    const LocalSearchOptions& options) {
  HTA_RETURN_IF_ERROR(ValidateAssignment(problem, initial));
  Lsm().runs.Add();
  trace::PhaseSpan improve_span("local_search.improve", &Lsm().seconds);

  LocalSearchResult result;
  result.assignment = initial;
  result.initial_motivation = TotalMotivation(problem, initial);

  std::vector<bool> assigned(problem.task_count(), false);
  for (const TaskBundle& b : result.assignment.bundles) {
    for (TaskIndex t : b) assigned[t] = true;
  }
  std::vector<TaskIndex> unassigned;
  for (size_t t = 0; t < problem.task_count(); ++t) {
    if (!assigned[t]) unassigned.push_back(static_cast<TaskIndex>(t));
  }

  const AssignmentAuditor auditor(problem);
  const AssignmentAuditor* audit = AuditEnabled() ? &auditor : nullptr;
  BundleStatsCache cache(problem, &result.assignment, options.threads);
  HTA_RETURN_IF_ERROR(RunPasses(problem, options, &result.assignment,
                                &unassigned, &cache, audit, &result));

  Lsm().passes.Add(result.passes);
  Lsm().moves_applied.Add(result.improving_moves);
  result.motivation = TotalMotivation(problem, result.assignment);
  HTA_DCHECK(ValidateAssignment(problem, result.assignment).ok());
  return result;
}

}  // namespace hta
