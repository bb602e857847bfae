#ifndef HTA_ASSIGN_HTA_SOLVER_H_
#define HTA_ASSIGN_HTA_SOLVER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "assign/assignment.h"
#include "assign/local_search.h"
#include "matching/max_weight_matching.h"
#include "qap/qap_view.h"
#include "util/result.h"
#include "util/rng.h"

namespace hta {

/// Which LSAP solver runs in the second phase (Algorithm 1/2, Line 11).
enum class LsapMethod {
  /// Exact solve: HTA-APP (1/4-approx). SolveLsapExactGroupMajor runs
  /// the LSAP as a |T| x |W| transportation problem; the paper pays a
  /// square Hungarian solve for the same optimum. The name predates
  /// that solver; it stays until perfbench/offline.cc, which names it,
  /// is next changed.
  kExactJv,
  kGreedy,  ///< Greedy bipartite matching: HTA-GRE (1/8-approx).
};

/// Which matching algorithm builds M_B (Line 2). Both are
/// 1/2-approximations, which Eq. 9/10 require.
enum class MatchingMethod {
  kGreedy,       ///< Sorted-edge greedy (the paper's choice).
  kPathGrowing,  ///< Drake-Hougardy path growing (ablation A3).
};

/// How matched pairs are permuted after the LSAP solve (Lines 12-16).
enum class SwapMode {
  kRandom,     ///< Flip each matched pair with probability 1/2 (paper).
  kBestOfTwo,  ///< Derandomized: evaluate both orientations of each
               ///< pair and keep the better one (extension, >= expected
               ///< value of kRandom per pair).
  kNone,       ///< Keep the LSAP permutation as-is (ablation A2).
};

/// Solver configuration. Defaults reproduce HTA-GRE, the paper's
/// recommended algorithm.
struct HtaSolverOptions {
  LsapMethod lsap = LsapMethod::kGreedy;
  MatchingMethod matching = MatchingMethod::kGreedy;
  SwapMode swap = SwapMode::kRandom;
  uint64_t seed = 42;
  /// Caps the threads this solve draws from the global pool (see
  /// util/parallel.h): 0 uses the full pool (HTA_THREADS), 1 forces
  /// serial execution. The parallel phases partition work
  /// deterministically, so every value produces bit-identical
  /// assignments, objectives, and certified ratios.
  size_t threads = 0;
};

/// Phase timings and objective diagnostics for one solve — these feed
/// the Fig. 2a phase breakdown directly.
struct HtaSolveStats {
  double matching_seconds = 0.0;  ///< Building M_B (Line 2).
  double lsap_seconds = 0.0;      ///< Auxiliary LSAP (Lines 3-11).
  double total_seconds = 0.0;     ///< Whole solve, including extraction.
  double qap_objective = 0.0;     ///< Eq. 8 value of the final permutation.
  double motivation = 0.0;        ///< Eq. 3 objective of the assignment.
  size_t matched_pairs = 0;       ///< |M_B|.
  /// A certified upper bound on the instance's optimum, from the
  /// Theorem 4 analysis: OPT <= 2 * (optimal LSAP profit), and the
  /// greedy LSAP profit is within 1/2 of optimal, so
  ///   OPT <= 2 * lsap_profit   (exact solvers)
  ///   OPT <= 4 * lsap_profit   (greedy solver).
  double optimum_upper_bound = 0.0;
  /// qap_objective / optimum_upper_bound — a per-instance *certificate*
  /// that this solve achieved at least this fraction of the true
  /// optimum (typically far above the worst-case 1/4 and 1/8 factors).
  double certified_ratio = 0.0;
  /// Warm-start diagnostics (zero for the matching+LSAP solvers):
  /// bundle holes patched from the unassigned pool and local-search
  /// passes run until the refined assignment stopped improving.
  size_t warm_repaired_slots = 0;
  size_t warm_passes = 0;
};

/// A solved instance: feasible assignment plus diagnostics.
struct HtaSolveResult {
  Assignment assignment;
  HtaSolveStats stats;
};

/// Solves one HTA iteration with the configured algorithm. The returned
/// assignment always satisfies C1 and C2 (also enforced by a debug-mode
/// validation).
Result<HtaSolveResult> SolveHta(const HtaProblem& problem,
                                const HtaSolverOptions& options);

/// HTA-APP (Algorithm 1): exact auxiliary LSAP, 1/4-approximation. The
/// paper's square Hungarian phase is O(|T|^3); SolveLsapExact reaches
/// the same optimum in O(|W|^2 * Xmax * |T|).
Result<HtaSolveResult> SolveHtaApp(const HtaProblem& problem,
                                   uint64_t seed = 42);

/// HTA-GRE (Algorithm 2): greedy LSAP. O(|T|^2 log |T|),
/// 1/8-approximation.
Result<HtaSolveResult> SolveHtaGre(const HtaProblem& problem,
                                   uint64_t seed = 42);

/// Warm-started solve: skips matching and the auxiliary LSAP entirely
/// and refines `seed` — a feasible partial assignment carried over from
/// a previous instance (surviving bundles, holes already dropped) —
/// with local search. Replace/exchange moves improve the carried
/// bundles against the fresh unassigned tasks and the insert pass
/// greedily patches spare capacity, so the result's objective is never
/// below the seed's. Fails with the validator's error if `seed` is
/// infeasible (also pre-checked by the AssignmentAuditor when
/// HTA_AUDIT=1, and the final assignment is audited like every solve).
/// No Theorem 4 certificate exists for this path:
/// optimum_upper_bound/certified_ratio stay 0.
Result<HtaSolveResult> SolveHtaWarmStart(const HtaProblem& problem,
                                         const Assignment& seed,
                                         const LocalSearchOptions& options);

/// Converts a QAP permutation (task k -> vertex pi(k)) into bundles via
/// Eq. 7, dropping padding tasks. Exposed for tests and the worked
/// example.
Assignment ExtractAssignment(const QapView& view,
                             const std::vector<int32_t>& perm);

/// Human-readable algorithm label for tables ("hta-app", "hta-gre", ...).
std::string SolverName(const HtaSolverOptions& options);

}  // namespace hta

#endif  // HTA_ASSIGN_HTA_SOLVER_H_
