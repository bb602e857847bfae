// Offline workload (offline_fig2): the Fig. 2a shape solved by HTA-GRE
// and HTA-APP directly, with no engine, plus the solver-layer probe both
// workloads share.
#include <algorithm>
#include <string>
#include <vector>

#include "assign/auditor.h"
#include "bench/bench_common.h"
#include "layers.h"
#include "matching/max_weight_matching.h"
#include "qap/hta_problem.h"
#include "qap/qap_view.h"

namespace perfbench {
namespace {

using namespace hta;

/// The fixed instance set: |T| tasks in groups of 20, |W| workers with
/// five uniform keywords, Xmax 10 (Fig. 2a). One size, so the p50 is
/// not a mix of size classes.
constexpr size_t kInstanceTasks = 1000;
constexpr size_t kInstanceWorkers = 40;
constexpr size_t kXmax = 10;
constexpr size_t kInstances = 4;
/// A setup_s sample times this many back-to-back creations of the
/// instance set's problems (a few ms): one creation is well under a
/// microsecond, too short for a clock read pair.
constexpr size_t kCreatesPerSample = 20000;
/// A round solves every instance this many times with HTA-GRE and once
/// with HTA-APP, so every round does the same work and GRE's tail fills
/// at twice APP's (slower) rate.
constexpr size_t kGreSolvesPerRound = 2;
/// GRE solves a run needs before its tail percentile (p90) has ten
/// samples beyond it.
constexpr size_t kMinGreSolves = 100;

/// The per-layer metrics of the engine, which this workload bypasses.
/// A traced run must name every per-layer metric, so these read 0: not
/// exercised.
constexpr struct {
  const char* name;
  const char* unit;
} kBypassedLayers[] = {
    {"engine.notify_plain_us", "us"},  {"engine.plain_notifies", "count"},
    {"engine.refreshes", "count"},     {"engine.iteration_solve_ms", "ms"},
    {"engine.refresh_overhead_us", "us"},
    {"engine.workers_per_iteration", "count"},
    {"engine.tasks_per_solve", "count"},
    {"engine.session_rel_mb", "MB"},   {"engine.failed_ops", "count"},
    {"shard.imbalance", "ratio"},      {"shard.driver_busy_share", "share"},
    {"qap.iteration_setup_us", "us"},  {"core.relevance_row_us", "us"},
    {"core.cache_build_ms", "ms"},     {"sim.busy_share", "share"},
    {"check.refresh_sum_ratio", "ratio"}};

/// Audits a finished solve outside its timed span.
bool CheckSolve(const HtaProblem& problem, const Result<HtaSolveResult>& solved,
                const char* what, RunReport* report) {
  ++report->attempted;
  if (!solved.ok()) {
    ++report->failed;
    report->Check(false, std::string(what) + " failed: " +
                             solved.status().ToString());
    return false;
  }
  const Status audit =
      AssignmentAuditor(problem).Audit(solved->assignment,
                                       solved->stats.motivation);
  report->Check(audit.ok(), std::string(what) + " audit: " + audit.ToString());
  const double ratio = solved->stats.certified_ratio;
  report->Check(ratio > 0.0 && ratio <= 1.0,
                std::string(what) + " certified_ratio out of (0, 1]: " +
                    std::to_string(ratio));
  return audit.ok();
}

/// Generates the instance set's tasks and workers from `seed`.
std::vector<bench::OfflineWorkload> GenerateInstances(uint64_t seed) {
  std::vector<bench::OfflineWorkload> instances;
  for (size_t i = 0; i < kInstances; ++i) {
    instances.push_back(bench::MakeOfflineWorkload(
        kInstanceTasks / 20, 20, kInstanceWorkers, MixSeed(seed, i)));
  }
  return instances;
}

/// HtaProblem::Create for every instance; the problems point into
/// `instances`.
std::vector<HtaProblem> CreateProblems(
    const std::vector<bench::OfflineWorkload>& instances) {
  std::vector<HtaProblem> problems;
  problems.reserve(instances.size());
  for (const bench::OfflineWorkload& w : instances) {
    auto problem = HtaProblem::Create(&w.catalog.tasks, &w.workers, kXmax);
    HTA_CHECK(problem.ok()) << problem.status();
    problems.push_back(std::move(*problem));
  }
  return problems;
}

/// Reference outcome of one instance, from the warm-up solves.
struct Reference {
  double gre_motivation = 0.0;
  double app_motivation = 0.0;
  size_t matched_pairs = 0;
};

}  // namespace

void SampleSolverLayers(const std::vector<Task>& tasks,
                        const std::vector<Worker>& workers, size_t xmax,
                        const HtaSolverOptions& base, uint64_t request,
                        SpanLog* spans, SolverLayerSamples* samples,
                        RunReport* report) {
  ++report->attempted;
  Clock::time_point start = Clock::now();
  auto problem = HtaProblem::Create(&tasks, &workers, xmax);
  Clock::time_point end = Clock::now();
  if (!problem.ok()) {
    ++report->failed;
    report->Check(false, "HtaProblem::Create failed: " +
                             problem.status().ToString());
    return;
  }
  samples->create_s.push_back(SecondsBetween(start, end));
  spans->Add("qap.create", start, end, request);

  // The matching layer, called directly: edge build, then sort + scan.
  const size_t vertices = QapView(&*problem).n();
  start = Clock::now();
  std::vector<WeightedEdge> edges =
      BuildDiversityEdges(problem->oracle(), base.threads);
  end = Clock::now();
  samples->edge_build_s.push_back(SecondsBetween(start, end));
  spans->Add("matching.edge_build", start, end, request);
  samples->edges.push_back(static_cast<double>(edges.size()));
  std::vector<float> weights(edges.size());
  for (size_t e = 0; e < edges.size(); ++e) weights[e] = edges[e].weight;
  std::sort(weights.begin(), weights.end());
  samples->distinct_weights.push_back(static_cast<double>(
      std::unique(weights.begin(), weights.end()) - weights.begin()));
  start = Clock::now();
  const GraphMatching matching =
      GreedyMaxWeightMatching(vertices, std::move(edges), base.threads);
  end = Clock::now();
  samples->sort_scan_s.push_back(SecondsBetween(start, end));
  spans->Add("matching.sort_scan", start, end, request);
  const double direct_matching_s =
      samples->edge_build_s.back() + samples->sort_scan_s.back();

  const auto solve = [&](LsapMethod lsap, const char* name) {
    HtaSolverOptions options = base;
    options.lsap = lsap;
    const Clock::time_point solve_start = Clock::now();
    Result<HtaSolveResult> solved = SolveHta(*problem, options);
    const Clock::time_point solve_end = Clock::now();
    if (solved.ok()) {
      const HtaSolveStats& stats = solved->stats;
      spans->Add(name, solve_start, solve_end, request, stats.matching_seconds);
      const double swap_extract_s = stats.total_seconds -
                                    stats.matching_seconds -
                                    stats.lsap_seconds;
      samples->solve_sum_ratio.push_back(
          Ratio(direct_matching_s + stats.lsap_seconds + swap_extract_s,
                SecondsBetween(solve_start, solve_end)));
      samples->swap_extract_s.push_back(swap_extract_s);
    }
    return solved;
  };
  const Result<HtaSolveResult> gre = solve(LsapMethod::kGreedy, "solver.gre");
  const Result<HtaSolveResult> app = solve(LsapMethod::kExactJv, "solver.app");
  const bool gre_ok = CheckSolve(*problem, gre, "HTA-GRE", report);
  const bool app_ok = CheckSolve(*problem, app, "HTA-APP", report);
  if (!gre_ok || !app_ok) return;
  samples->gre_matching_s.push_back(gre->stats.matching_seconds);
  samples->gre_lsap_s.push_back(gre->stats.lsap_seconds);
  samples->app_lsap_s.push_back(app->stats.lsap_seconds);
  report->Check(gre->stats.matched_pairs == app->stats.matched_pairs &&
                    gre->stats.matched_pairs == matching.edges.size(),
                "GRE, APP and the direct matching disagree on |M_B|");
}

void AddSolverLayerMetrics(const SolverLayerSamples& samples,
                           RunReport* report) {
  std::vector<Metric>& m = report->per_layer;
  m.push_back({"qap.create_ms", Median(samples.create_s) * 1e3, "ms"});
  m.push_back(
      {"matching.edge_build_ms", Median(samples.edge_build_s) * 1e3, "ms"});
  m.push_back(
      {"matching.sort_scan_ms", Median(samples.sort_scan_s) * 1e3, "ms"});
  m.push_back({"matching.edges", Mean(samples.edges), "count"});
  m.push_back(
      {"matching.distinct_weights", Mean(samples.distinct_weights), "count"});
  m.push_back({"matching.edge_mb",
               Mean(samples.edges) * sizeof(WeightedEdge) / kMiB, "MB"});
  m.push_back(
      {"assign.gre_matching_ms", Median(samples.gre_matching_s) * 1e3, "ms"});
  m.push_back({"assign.gre_lsap_ms", Median(samples.gre_lsap_s) * 1e3, "ms"});
  m.push_back({"assign.app_lsap_ms", Median(samples.app_lsap_s) * 1e3, "ms"});
  m.push_back(
      {"assign.swap_extract_ms", Median(samples.swap_extract_s) * 1e3, "ms"});
  // solve = matching + LSAP + swap/extract against the wall time around
  // the call. The matching term is the direct edge build + sort/scan of
  // the same instance, timed apart from the solve, so the check fails
  // when the solver's matching phase costs something the direct calls
  // do not show (the swap/extract residual cannot absorb it). The median
  // over solves ignores the few whose direct calls and solve straddle a
  // change of host speed.
  const double ratio = Median(samples.solve_sum_ratio);
  m.push_back({"check.solve_sum_ratio", ratio, "ratio"});
  report->Check(ratio > 0.95 && ratio < 1.05,
                "solve decomposition off by more than 5%: ratio " +
                    std::to_string(ratio));
}

RunReport RunOffline(const RunConfig& config, SpanLog* spans) {
  RunReport report;

  // The synthetic tasks and workers are inputs, generated untimed.
  const std::vector<bench::OfflineWorkload> instances =
      GenerateInstances(config.seed);

  // Set-up: HtaProblem::Create over the instance set, sampled here and
  // after every round, so the samples spread over the run.
  std::vector<double> setup_s;
  const auto sample_setup = [&] {
    const Clock::time_point start = Clock::now();
    for (size_t c = 0; c < kCreatesPerSample; ++c) CreateProblems(instances);
    setup_s.push_back(SecondsBetween(start, Clock::now()) /
                      static_cast<double>(kCreatesPerSample));
  };
  sample_setup();
  const std::vector<HtaProblem> problems = CreateProblems(instances);

  const auto instance_seed = [&](size_t i) { return MixSeed(config.seed, 50 + i); };

  // Warm-up: one untimed GRE and APP solve per instance; their outcomes
  // are the reference every timed solve must repeat exactly.
  std::vector<Reference> references(kInstances);
  std::vector<double> gre_ratio;
  std::vector<double> app_ratio;
  for (size_t i = 0; i < kInstances; ++i) {
    const HtaProblem& problem = problems[i];
    const auto gre = SolveHtaGre(problem, instance_seed(i));
    const auto app = SolveHtaApp(problem, instance_seed(i));
    if (!CheckSolve(problem, gre, "HTA-GRE", &report) ||
        !CheckSolve(problem, app, "HTA-APP", &report)) {
      return report;
    }
    references[i] = {gre->stats.motivation, app->stats.motivation,
                     gre->stats.matched_pairs};
    report.Check(gre->stats.matched_pairs == app->stats.matched_pairs,
                 "GRE and APP report different matched_pairs");
    gre_ratio.push_back(gre->stats.certified_ratio);
    app_ratio.push_back(app->stats.certified_ratio);
  }

  // Timed rounds over the instance set. Traced runs alternate an
  // untraced round with a traced one to measure the tracing overhead.
  // Untraced solve times per instance. The p50s are the median over
  // instances of each instance's median: the instances differ in size of
  // work, and a pooled median would jump between instances as the
  // sample counts shift.
  std::vector<std::vector<double>> gre_s(kInstances);
  std::vector<std::vector<double>> app_s(kInstances);
  size_t gre_solves = 0;
  // Solves per second of each round. The run reports their median,
  // which stays with the majority when a host slow-down covers part of
  // the run.
  std::vector<double> untraced_rates;
  std::vector<double> traced_rates;
  SpanLog untraced(false, 0);
  const Clock::time_point origin = Clock::now();
  for (size_t round = 0;; ++round) {
    const bool traced_round = config.trace && round % 2 == 1;
    SpanLog* round_spans = traced_round ? spans : &untraced;
    double round_s = 0.0;
    size_t round_solves = 0;
    // Times one solve; only untraced solves feed the end-to-end figures.
    const auto timed = [&](auto solver, size_t i, const char* name,
                           std::vector<double>* seconds) {
      const Clock::time_point start = Clock::now();
      Result<HtaSolveResult> solved =
          solver(problems[i], instance_seed(i));
      const Clock::time_point end = Clock::now();
      round_spans->Add(name, start, end, i);
      const double s = SecondsBetween(start, end);
      round_s += s;
      ++round_solves;
      if (!traced_round) seconds->push_back(s);
      return solved;
    };
    for (size_t i = 0; i < kInstances; ++i) {
      const HtaProblem& problem = problems[i];
      for (size_t g = 0; g < kGreSolvesPerRound; ++g) {
        const auto gre = timed(SolveHtaGre, i, "solver.gre", &gre_s[i]);
        if (!traced_round) ++gre_solves;
        if (CheckSolve(problem, gre, "HTA-GRE", &report)) {
          report.Check(
              gre->stats.motivation == references[i].gre_motivation &&
                  gre->stats.matched_pairs == references[i].matched_pairs,
              "a repeated GRE solve differs from the warm-up solve");
        }
      }
      const auto app = timed(SolveHtaApp, i, "solver.app", &app_s[i]);
      if (CheckSolve(problem, app, "HTA-APP", &report)) {
        report.Check(app->stats.motivation == references[i].app_motivation &&
                         app->stats.matched_pairs ==
                             references[i].matched_pairs,
                     "a repeated APP solve differs from the warm-up solve");
      }
    }
    (traced_round ? traced_rates : untraced_rates)
        .push_back(Ratio(static_cast<double>(round_solves), round_s));
    sample_setup();
    if (gre_solves >= kMinGreSolves &&
        SecondsBetween(origin, Clock::now()) >= config.seconds) {
      break;
    }
  }

  const auto median_of_medians = [](const std::vector<std::vector<double>>& s) {
    std::vector<double> medians;
    for (const std::vector<double>& instance : s) {
      medians.push_back(Median(instance));
    }
    return Median(medians);
  };
  std::vector<double> all_gre_s;
  for (const std::vector<double>& instance : gre_s) {
    all_gre_s.insert(all_gre_s.end(), instance.begin(), instance.end());
  }
  const double solves_per_s = Median(untraced_rates);
  const double gre_p50_ms = median_of_medians(gre_s) * 1e3;
  const double gre_p90_ms = Quantile(all_gre_s, 0.90) * 1e3;
  const double app_p50_ms = median_of_medians(app_s) * 1e3;
  const double setup = SetupSeconds(setup_s);
  report.detail = {{"solves_per_s", solves_per_s, "1/s"},
                   {"gre_solve_p50_ms", gre_p50_ms, "ms"},
                   {"gre_solve_p90_ms", gre_p90_ms, "ms"},
                   {"app_solve_p50_ms", app_p50_ms, "ms"},
                   {"gre_certified_ratio", Mean(gre_ratio), "ratio"},
                   {"app_certified_ratio", Mean(app_ratio), "ratio"},
                   {"gre_solves", static_cast<double>(gre_solves), "count"}};
  report.end_to_end = {{"throughput_per_s", solves_per_s, "1/s"},
                       {"wait_p50_ms", gre_p50_ms, "ms"},
                       {"wait_tail_ms", gre_p90_ms, "ms"},
                       {"second_p50_ms", app_p50_ms, "ms"},
                       {"gre_quality", Mean(gre_ratio), "score"},
                       {"second_quality", Mean(app_ratio), "score"},
                       {"setup_s", setup, "s"}};

  if (config.trace) {
    SolverLayerSamples samples;
    HtaSolverOptions base;  // SolveHtaGre/SolveHtaApp's options.
    for (size_t i = 0; i < kInstances; ++i) {
      base.seed = instance_seed(i);
      SampleSolverLayers(instances[i].catalog.tasks, instances[i].workers,
                         kXmax, base, i, spans, &samples, &report);
    }
    AddSolverLayerMetrics(samples, &report);
    for (const auto& layer : kBypassedLayers) {
      report.per_layer.push_back({layer.name, 0.0, layer.unit});
    }
    report.per_layer.push_back(
        {"trace.overhead_share",
         1.0 - Ratio(Median(traced_rates), solves_per_s), "share"});
  }
  report.Check(gre_solves >= kMinGreSolves,
               "fewer GRE solves than the tail percentile needs");
  return report;
}

}  // namespace perfbench
