#ifndef HTA_PERFBENCH_LAYERS_H_
#define HTA_PERFBENCH_LAYERS_H_

// The solver-layer probe shared by the serving and offline workloads.
// The service runs its solves inside NotifyCompleted, where the phases
// cannot be timed from outside, so serve_sharded probes instances of the
// service's shape; offline_fig2 probes its own instance set.

#include <cstdint>
#include <vector>

#include "assign/hta_solver.h"
#include "core/task.h"
#include "core/worker.h"
#include "harness.h"

namespace perfbench {

/// Solver-stack samples, one entry per probed instance.
struct SolverLayerSamples {
  std::vector<double> create_s;
  std::vector<double> edge_build_s;
  std::vector<double> sort_scan_s;
  std::vector<double> edges;
  std::vector<double> distinct_weights;
  std::vector<double> gre_matching_s;
  std::vector<double> gre_lsap_s;
  std::vector<double> app_lsap_s;
  std::vector<double> swap_extract_s;  ///< GRE and APP solves pooled.
  /// Per SolveHta call: (direct matching of the same instance, i.e. edge
  /// build + sort/scan, + LSAP + swap/extract) ÷ wall time around it.
  std::vector<double> solve_sum_ratio;
};

/// Probes one instance: HtaProblem::Create, then BuildDiversityEdges and
/// GreedyMaxWeightMatching called directly, then one HTA-GRE and one
/// HTA-APP solve. `base` fixes threads, swap mode and seed. Every solve is
/// audited outside its span; failures land in `report`.
void SampleSolverLayers(const std::vector<hta::Task>& tasks,
                        const std::vector<hta::Worker>& workers, size_t xmax,
                        const hta::HtaSolverOptions& base, uint64_t request,
                        SpanLog* spans, SolverLayerSamples* samples,
                        RunReport* report);

/// Adds the qap.create_ms, matching.* and assign.* per-layer metrics and
/// the solve decomposition check.
void AddSolverLayerMetrics(const SolverLayerSamples& samples,
                           RunReport* report);

}  // namespace perfbench

#endif  // HTA_PERFBENCH_LAYERS_H_
