// A15 — Ablation: sharded serving throughput. The solver-internal hot
// paths are parallel, but one shard serializes every registration,
// completion, and iteration; this bench drives the same concurrent
// deployment against ShardedAssignmentService at its default of one
// shard and at rising shard counts, each driven by one load thread per
// shard. Shard s solves over its own catalog slice, so per-iteration
// work shrinks with the shard count *and* shards serve concurrently;
// sustained completions/sec is the headline, with p50/p99 solve
// latency from the util/metrics histograms alongside. (That one shard
// reproduces a bare per-shard engine bit for bit is pinned by
// engine/sharded_equivalence_test.)
#include <iostream>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "engine/sharded_service.h"
#include "sim/behavior.h"
#include "sim/concurrent_deployment.h"
#include "util/table.h"
#include "util/timer.h"

namespace {

using namespace hta;

struct ThroughputConfig {
  size_t catalog_groups = 100;
  size_t tasks_per_group = 100;
  size_t workers = 8;
  double session_minutes = 10.0;
  double arrival_rate_per_min = 1.5;
  size_t refresh_after_completions = 3;
  std::vector<size_t> shard_counts = {2, 4};
  uint64_t seed = 20240915;
};

struct RunOutcome {
  DeploymentResult result;
  double wall_seconds = 0.0;
  size_t completions = 0;
  double p50_solve_seconds = 0.0;
  double p99_solve_seconds = 0.0;
  // Registry snapshot at the end of this run; rows are appended after
  // every run is done, when the registry holds only the last run.
  std::string metrics_snapshot;
};

AssignmentServiceOptions ServiceOptions(const ThroughputConfig& config,
                                        size_t catalog_size,
                                        EventLog* event_log) {
  AssignmentServiceOptions options;
  options.strategy = StrategyKind::kHtaGre;
  options.xmax = 10;
  options.extra_random_tasks = 3;
  options.refresh_after_completions = config.refresh_after_completions;
  // A serving deployment considers its whole (shard) catalog per
  // iteration — the 300-task sampling cap is the offline cost-control
  // knob, and capping here would hand every shard count the same
  // instance size and hide exactly the effect under measurement.
  options.max_tasks_per_iteration = catalog_size;
  // One solver thread per shard: shards are the unit of concurrency,
  // and serial solves never contend on the global compute pool.
  options.solver_threads = 1;
  options.seed = config.seed;
  options.event_log = event_log;
  return options;
}

/// Fresh behavioral workers for one run. Workers are stateful (boredom,
/// history, RNG), so every run must rebuild them from the same seeds to
/// face the same population.
std::vector<BehavioralWorker> MakeBehavioral(
    const Catalog& catalog, const std::vector<Worker>& profiles,
    uint64_t seed) {
  std::vector<BehavioralWorker> behavioral;
  behavioral.reserve(profiles.size());
  for (size_t s = 0; s < profiles.size(); ++s) {
    Rng param_rng(seed ^ (0x9e3779b97f4a7c15ULL * (s + 1)));
    const BehaviorParams params = SampleBehaviorParams(&param_rng);
    behavioral.emplace_back(&catalog.tasks, DistanceKind::kJaccard,
                            profiles[s], params, param_rng.Fork(17));
  }
  return behavioral;
}

size_t CountCompletions(const DeploymentResult& result) {
  size_t completions = 0;
  for (const SessionResult& session : result.sessions) {
    completions += session.events.size();
  }
  return completions;
}

/// Captures p50/p99 of engine.solve_seconds for the run bracketed by
/// the caller's ResetForTesting(): the quantile helper reads the
/// snapshot buckets, so the math lives in util/metrics, not here.
void FillSolveQuantiles(RunOutcome* outcome) {
  for (const metrics::MetricValue& value : metrics::Snapshot()) {
    if (value.name == "engine.solve_seconds") {
      outcome->p50_solve_seconds = value.ValueAtQuantile(0.50);
      outcome->p99_solve_seconds = value.ValueAtQuantile(0.99);
    }
  }
}

RunOutcome RunSharded(const ThroughputConfig& config, const Catalog& catalog,
                      const std::vector<Worker>& profiles, size_t shards,
                      size_t driver_threads, EventLog* event_log) {
  std::vector<BehavioralWorker> behavioral =
      MakeBehavioral(catalog, profiles, config.seed + 5);
  ShardedServiceOptions options;
  options.service = ServiceOptions(config, catalog.size(), event_log);
  options.num_shards = shards;
  ShardedAssignmentService service(&catalog.tasks, options);
  HTA_CHECK_EQ(service.num_shards(), shards);
  ConcurrentDeploymentOptions deployment;
  deployment.arrival_rate_per_min = config.arrival_rate_per_min;
  deployment.session.max_minutes = config.session_minutes;
  deployment.seed = config.seed + 99;
  deployment.driver_threads = driver_threads;

  metrics::ResetForTesting();
  RunOutcome outcome;
  WallTimer timer;
  outcome.result =
      RunConcurrentDeployment(&service, catalog, &behavioral, deployment);
  outcome.wall_seconds = timer.ElapsedSeconds();
  FillSolveQuantiles(&outcome);
  outcome.metrics_snapshot = metrics::SnapshotJson();
  outcome.completions = CountCompletions(outcome.result);
  return outcome;
}

}  // namespace

int main() {
  bench::PrintBanner("ablation: sharded serving throughput",
                     "serving-layer scale-out (ROADMAP north star; "
                     "Section V-C deployment shape)");

  ThroughputConfig config;
  switch (GetBenchScale()) {
    case BenchScale::kSmoke:
      config.catalog_groups = 20;
      config.tasks_per_group = 100;
      config.workers = 6;
      config.session_minutes = 5.0;
      config.shard_counts = {4};
      break;
    case BenchScale::kDefault:
      break;  // 10^4-task catalog, shard counts {2, 4}.
    case BenchScale::kPaper:
      config.catalog_groups = 200;
      config.workers = 12;
      config.session_minutes = 15.0;
      config.shard_counts = {2, 4, 8};
      break;
  }
  const size_t catalog_size = config.catalog_groups * config.tasks_per_group;

  CatalogOptions catalog_options;
  catalog_options.num_groups = config.catalog_groups;
  catalog_options.tasks_per_group = config.tasks_per_group;
  catalog_options.vocabulary_size = 400;
  catalog_options.seed = config.seed;
  auto catalog_or = GenerateCatalog(catalog_options);
  HTA_CHECK(catalog_or.ok()) << catalog_or.status();
  const Catalog& catalog = *catalog_or;

  WorkerGenOptions worker_options;
  worker_options.count = config.workers;
  worker_options.seed = config.seed + 1;
  auto profiles_or = GenerateWorkers(worker_options, catalog);
  HTA_CHECK(profiles_or.ok()) << profiles_or.status();
  const std::vector<Worker>& profiles = *profiles_or;

  // Latency histograms on for every run (restored before the JSON
  // appends so records stay lean when the caller left metrics off).
  const bool metrics_were_enabled = metrics::Enabled();
  metrics::OverrideEnabled(true);

  EventLog one_shard_log;
  const RunOutcome one_shard = RunSharded(config, catalog, profiles,
                                          /*shards=*/1, /*driver_threads=*/1,
                                          &one_shard_log);

  std::vector<std::pair<size_t, RunOutcome>> sharded_runs;
  for (const size_t shards : config.shard_counts) {
    EventLog log;
    sharded_runs.emplace_back(
        shards, RunSharded(config, catalog, profiles, shards,
                           /*driver_threads=*/shards, &log));
  }
  metrics::OverrideEnabled(metrics_were_enabled);

  const double base_rate =
      static_cast<double>(one_shard.completions) / one_shard.wall_seconds;
  TableWriter table({"shards", "drv thr", "completions", "compl/sec",
                     "speedup", "p50 solve (ms)", "p99 solve (ms)",
                     "peak sessions"});
  const auto add_row = [&](size_t shards, size_t threads,
                           const RunOutcome& run) {
    const double rate =
        static_cast<double>(run.completions) / run.wall_seconds;
    table.AddRow({FmtInt(static_cast<long long>(shards)),
                  FmtInt(static_cast<long long>(threads)),
                  FmtInt(static_cast<long long>(run.completions)),
                  FmtDouble(rate, 1), FmtDouble(rate / base_rate, 2),
                  FmtDouble(run.p50_solve_seconds * 1e3, 3),
                  FmtDouble(run.p99_solve_seconds * 1e3, 3),
                  FmtInt(static_cast<long long>(
                      run.result.max_concurrent_sessions))});
    bench::AppendBenchJson(
        "ablation_service_throughput",
        {{"shards", bench::JsonNum(static_cast<double>(shards))},
         {"driver_threads", bench::JsonNum(static_cast<double>(threads))},
         {"catalog", bench::JsonNum(static_cast<double>(catalog_size))},
         {"workers", bench::JsonNum(static_cast<double>(config.workers))},
         {"completions", bench::JsonNum(static_cast<double>(run.completions))},
         {"completions_per_sec_speedup", bench::JsonNum(rate / base_rate)},
         {"p50_solve_seconds", bench::JsonNum(run.p50_solve_seconds)},
         {"p99_solve_seconds", bench::JsonNum(run.p99_solve_seconds)}},
        run.wall_seconds, run.metrics_snapshot);
  };
  add_row(1, 1, one_shard);
  for (const auto& [shards, run] : sharded_runs) add_row(shards, shards, run);
  table.Print(std::cout);

  std::cout << "\nexpected: at S shards each iteration solves over ~1/S "
               "of the catalog and shards\nserve concurrently, so sustained "
               "completions/sec rises several-fold and solve\nlatency "
               "quantiles drop. Sharded deployments differ from the 1-shard "
               "one (each\nshard is its own marketplace) but are "
               "bit-identical across driver-thread caps\nand HTA_THREADS — "
               "engine/sharded_equivalence_test pins that, and that one\n"
               "shard reproduces a bare per-shard engine.\n";
  return 0;
}
