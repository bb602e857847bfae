#ifndef HTA_ASSIGN_BASELINES_H_
#define HTA_ASSIGN_BASELINES_H_

#include "assign/assignment.h"
#include "assign/hta_solver.h"
#include "util/result.h"
#include "util/rng.h"

namespace hta {

/// The assignment strategies compared in the online deployment
/// (Section V-C) plus a random control.
enum class StrategyKind {
  kHtaGre,      ///< Adaptive HTA-GRE: per-worker (alpha, beta) estimates.
  kHtaGreDiv,   ///< HTA-GRE with alpha=1, beta=0 for everyone (diversity
                ///< only, non-adaptive).
  kHtaGreRel,   ///< HTA-GRE with alpha=0, beta=1 (relevance only,
                ///< non-adaptive).
  kRandom,      ///< Random feasible assignment (control).
};

/// Stable name ("hta-gre", "hta-gre-div", "hta-gre-rel", "random").
std::string StrategyName(StrategyKind kind);

/// Runs HTA-GRE after overriding every worker's weights to `weights`
/// (the HTA-GRE-DIV / HTA-GRE-REL strategies). The input problem is not
/// modified; workers are copied with replaced weights and the task side
/// (oracle included — also shared packed rows and dense-matrix
/// overrides) is reused as-is via HtaProblem::WithWorkers. `threads`
/// caps the solve's pool draw (0 = full pool).
Result<HtaSolveResult> SolveWithFixedWeights(
    const HtaProblem& problem, MotivationWeights weights, uint64_t seed = 42,
    SwapMode swap = SwapMode::kRandom, size_t threads = 0);

/// Uniform-random feasible assignment: tasks are shuffled and dealt
/// round-robin up to Xmax each. Every returned assignment satisfies
/// C1/C2.
Result<HtaSolveResult> SolveRandomAssignment(const HtaProblem& problem,
                                             Rng* rng);

/// Dispatches a strategy: kHtaGre solves with the workers' own weights;
/// the fixed strategies override them; kRandom uses `rng`. `swap`
/// selects the pair-permutation step of Algorithm 1 Lines 12-16: the
/// paper's randomized swap by default, or the derandomized best-of-two
/// variant (used by the deployment service, where giving a worker a
/// strictly better bundle is always preferable).
/// `threads` caps the solve's draw from the global pool (0 = full
/// pool, 1 = serial); every cap yields bit-identical assignments.
Result<HtaSolveResult> SolveWithStrategy(const HtaProblem& problem,
                                         StrategyKind kind, uint64_t seed,
                                         Rng* rng,
                                         SwapMode swap = SwapMode::kRandom,
                                         size_t threads = 0);

}  // namespace hta

#endif  // HTA_ASSIGN_BASELINES_H_
