// A14 — Ablation: cross-iteration warm-start solve path. With
// AssignmentServiceOptions::warm_start on, the engine seeds each
// iteration's local search from the due worker's surviving bundle
// (carry-over + delta repair) instead of re-running matching + greedy
// LSAP from scratch; this bench drives the same scripted deployment
// cold and warm at three pool-churn rates (the fraction of a bundle completed between refreshes:
// refresh_after_completions / xmax) and compares mean per-iteration
// solve time and per-iteration motivation. The auditor is forced on for
// both modes, so every carried seed and final assignment is
// re-validated; the bench CHECK-fails if any warm refresh's bundle is
// worth less than the cold deployment's bundle at the same refresh (the
// objective-no-worse contract, checked at every churn rate).
//
// The two deployments diverge after their first differing assignment,
// so their *estimated* (alpha, beta) — and with them the solver
// objectives in IterationRecord — drift onto incomparable scales.
// Quality is therefore judged off-policy: after every refresh the bench
// re-scores the displayed bundle under the worker's fixed ground-truth
// weights (extra_random_tasks = 0, so the display is exactly the
// optimized bundle).
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "assign/assignment.h"
#include "bench/bench_common.h"
#include "engine/sharded_service.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

struct DriveConfig {
  size_t catalog_size = 2000;
  size_t workers = 6;
  size_t rounds = 3;
  size_t xmax = 20;
  size_t sample_cap = 1200;
  uint64_t seed = 90210;
};

struct DriveStats {
  size_t solver_iterations = 0;
  double mean_solve_seconds = 0.0;
  double mean_quality = 0.0;
  /// Fixed-weight motivation of the displayed bundle after each
  /// refresh, in (round, worker) order — the deployment-independent
  /// quality scale the warm-vs-cold CHECK compares on.
  std::vector<double> qualities;
  size_t seeded = 0;
  size_t carried = 0;
  size_t repaired = 0;
};

DriveStats Drive(const hta::Catalog& catalog,
                 const std::vector<hta::Worker>& profiles,
                 const hta::HtaProblem& scoring, bool warm_start,
                 size_t refresh, const DriveConfig& config) {
  using namespace hta;
  ShardedServiceOptions options;
  options.service.strategy = StrategyKind::kHtaGre;
  options.service.xmax = config.xmax;
  // Display exactly the optimized bundle so Displayed() is the object
  // the bench scores.
  options.service.extra_random_tasks = 0;
  options.service.refresh_after_completions = refresh;
  options.service.max_tasks_per_iteration = config.sample_cap;
  options.service.seed = config.seed;
  options.service.warm_start = warm_start;

  ShardedAssignmentService service(&catalog.tasks, options);
  HTA_CHECK_EQ(service.shard(0).options().warm_start, warm_start);

  std::vector<uint64_t> ids;
  ids.reserve(config.workers);
  for (size_t w = 0; w < config.workers; ++w) {
    ids.push_back(service.RegisterWorker(profiles[w].interests()));
  }
  DriveStats stats;
  // Each round every worker completes exactly `refresh` tasks, firing
  // one refresh solve per (worker, round) with a bundle churn of
  // refresh / xmax; the freshly displayed bundle is then scored under
  // the worker's ground-truth weights.
  for (size_t round = 0; round < config.rounds; ++round) {
    for (size_t w = 0; w < ids.size(); ++w) {
      const uint64_t id = ids[w];
      for (size_t c = 0; c < refresh; ++c) {
        const std::vector<size_t> displayed = service.Displayed(id);
        HTA_CHECK(!displayed.empty());
        HTA_CHECK(service.NotifyCompleted(id, displayed.front()).ok());
      }
      TaskBundle bundle;
      for (const size_t t : service.Displayed(id)) {
        bundle.push_back(static_cast<TaskIndex>(t));
      }
      stats.qualities.push_back(BundleMotivation(
          scoring, static_cast<WorkerIndex>(w), bundle));
    }
  }

  double solve_sum = 0.0;
  for (const IterationRecord& record : service.shard(0).iterations()) {
    if (record.task_count == 0) continue;  // Cold-start random bundles.
    ++stats.solver_iterations;
    solve_sum += record.solve_seconds;
    if (record.warm_seeded) ++stats.seeded;
    stats.carried += record.carried_tasks;
    stats.repaired += record.repaired_slots;
  }
  if (stats.solver_iterations > 0) {
    stats.mean_solve_seconds =
        solve_sum / static_cast<double>(stats.solver_iterations);
  }
  double quality_sum = 0.0;
  for (const double q : stats.qualities) quality_sum += q;
  if (!stats.qualities.empty()) {
    stats.mean_quality =
        quality_sum / static_cast<double>(stats.qualities.size());
  }
  return stats;
}

}  // namespace

int main() {
  using namespace hta;
  // The carry-over contract is only meaningful audited: force the
  // auditor on (before anything latches AuditEnabled) unless the caller
  // explicitly chose otherwise.
  setenv("HTA_AUDIT", "1", /*overwrite=*/0);
  bench::PrintBanner(
      "ablation: cross-iteration warm-start solve path",
      "online service under churn (Section V-C setup, warm-start extension)");

  DriveConfig config;
  switch (GetBenchScale()) {
    case BenchScale::kSmoke:
      config.catalog_size = 1000;
      config.workers = 3;
      config.rounds = 2;
      config.sample_cap = 400;
      break;
    case BenchScale::kDefault:
      break;  // Struct defaults.
    case BenchScale::kPaper:
      config.catalog_size = 10000;
      config.workers = 8;
      config.rounds = 4;
      break;
  }

  const bench::OfflineWorkload workload = bench::MakeOfflineWorkload(
      std::max<size_t>(config.catalog_size / 100, 1), 100, config.workers,
      /*seed=*/7 + config.catalog_size);
  // Bundles are scored by Eq. 3 over a lazy problem on the whole
  // catalog under the ground-truth weights: Create does no relevance
  // sweep, and Xmax-sized bundles need only a few distances each.
  auto scoring = HtaProblem::Create(&workload.catalog.tasks,
                                    &workload.workers, config.xmax);
  HTA_CHECK(scoring.ok()) << scoring.status();

  // Churn = refresh_after_completions / xmax: the bundle fraction a
  // worker completes before their refresh fires.
  const std::vector<size_t> refresh_steps = {config.xmax / 20,  // 5%
                                             config.xmax / 5,   // 20%
                                             config.xmax / 2};  // 50%
  TableWriter table({"churn", "mode", "solves", "mean solve (ms)",
                     "mean bundle motivation", "carried", "repaired",
                     "solve speedup"});
  for (const size_t refresh : refresh_steps) {
    const double churn = static_cast<double>(refresh) /
                         static_cast<double>(config.xmax);
    const DriveStats cold = Drive(workload.catalog, workload.workers,
                                  *scoring, /*warm_start=*/false, refresh,
                                  config);
    const DriveStats warm = Drive(workload.catalog, workload.workers,
                                  *scoring, /*warm_start=*/true, refresh,
                                  config);
    HTA_CHECK_EQ(warm.solver_iterations, cold.solver_iterations)
        << "warm start must not change the deployment's solve schedule";
    HTA_CHECK_EQ(warm.qualities.size(), cold.qualities.size());
    // Objective-no-worse, per refresh: the warm solve starts from the
    // carried bundles and only ever improves them, while the cold solve
    // rebuilds from scratch over a sample that lacks those survivors.
    for (size_t i = 0; i < warm.qualities.size(); ++i) {
      HTA_CHECK_GE(warm.qualities[i], cold.qualities[i] - 1e-9)
          << "warm refresh " << i << " fell below cold";
    }

    const double speedup = warm.mean_solve_seconds > 0.0
                               ? cold.mean_solve_seconds /
                                     warm.mean_solve_seconds
                               : 0.0;
    for (const bool is_warm : {false, true}) {
      const DriveStats& stats = is_warm ? warm : cold;
      table.AddRow({FmtDouble(churn * 100.0, 0) + "%",
                    is_warm ? "warm" : "cold",
                    FmtInt(static_cast<long long>(stats.solver_iterations)),
                    FmtDouble(stats.mean_solve_seconds * 1e3, 3),
                    FmtDouble(stats.mean_quality, 4),
                    FmtInt(static_cast<long long>(stats.carried)),
                    FmtInt(static_cast<long long>(stats.repaired)),
                    is_warm ? FmtDouble(speedup, 2) : "1.00"});
      bench::AppendBenchJson(
          "ablation_warm_start",
          {{"catalog",
            bench::JsonNum(static_cast<double>(config.catalog_size))},
           {"churn", bench::JsonNum(churn)},
           {"mode", bench::JsonStr(is_warm ? "warm" : "cold")},
           {"sample_cap",
            bench::JsonNum(static_cast<double>(config.sample_cap))},
           {"solver_iterations",
            bench::JsonNum(static_cast<double>(stats.solver_iterations))},
           {"mean_solve_seconds", bench::JsonNum(stats.mean_solve_seconds)},
           {"mean_bundle_motivation", bench::JsonNum(stats.mean_quality)},
           {"carried_tasks",
            bench::JsonNum(static_cast<double>(stats.carried))},
           {"repaired_slots",
            bench::JsonNum(static_cast<double>(stats.repaired))}},
          stats.mean_solve_seconds *
              static_cast<double>(stats.solver_iterations));
    }
    bench::AppendBenchJson(
        "ablation_warm_start",
        {{"catalog", bench::JsonNum(static_cast<double>(config.catalog_size))},
         {"churn", bench::JsonNum(churn)},
         {"mode", bench::JsonStr("summary")},
         {"sample_cap",
          bench::JsonNum(static_cast<double>(config.sample_cap))},
         {"solve_speedup", bench::JsonNum(speedup)}},
        (cold.mean_solve_seconds + warm.mean_solve_seconds) *
            static_cast<double>(cold.solver_iterations));
  }
  table.Print(std::cout);
  std::cout << "\nexpected: warm-started solves skip matching and the "
               "auxiliary LSAP, refining the\ncarried bundles instead — at "
               "low churn (most of the bundle survives) mean solve\ntime "
               "drops several-fold while no refreshed bundle is ever worth "
               "less than the\ncold deployment's at the same refresh "
               "(CHECKed above under fixed ground-truth\nweights, auditor "
               "on).\n";
  return 0;
}
