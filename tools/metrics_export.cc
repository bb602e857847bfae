// hta_metrics_snapshot — drives a scripted concurrent deployment with
// the metrics registry forced on and prints the resulting snapshot as
// JSON (or, with --digest, the deterministic counter digest that must
// be bit-identical across HTA_THREADS; or, with --quantiles, a
// per-histogram p50/p90/p99 latency report).
//
//   hta_metrics_snapshot [--workers N] [--minutes M] [--arrival-rate R]
//                        [--seed S] [--digest] [--quantiles] [--out FILE]
//                        [--trace FILE]
//
// With --trace FILE the run also records phase spans and flushes them
// to FILE in Chrome trace-event format.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "engine/sharded_service.h"
#include "sim/concurrent_deployment.h"
#include "sim/online_experiment.h"
#include "sim/worker_gen.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace {

using namespace hta;

struct ExportConfig {
  size_t workers = 8;
  double minutes = 10.0;
  double arrival_rate = 2.0;
  uint64_t seed = 7;
  bool digest = false;
  bool quantiles = false;
  std::string out;
  std::string trace;
};

int Usage() {
  std::cerr << "usage: hta_metrics_snapshot [--workers N] [--minutes M]\n"
               "                            [--arrival-rate R] [--seed S]\n"
               "                            [--digest] [--quantiles]\n"
               "                            [--out FILE] [--trace FILE]\n";
  return 2;
}

/// One line per histogram: name, observation count, and interpolated
/// p50/p90/p99 (see metrics::HistogramQuantile for the estimator).
std::string QuantileReport(const std::vector<metrics::MetricValue>& snapshot) {
  std::string report;
  for (const metrics::MetricValue& v : snapshot) {
    if (v.kind != metrics::internal::Kind::kHistogram) continue;
    report += v.name + " count=" + std::to_string(v.count);
    for (const double q : {0.5, 0.9, 0.99}) {
      report += " p" + std::to_string(static_cast<int>(q * 100)) + "=" +
                std::to_string(v.ValueAtQuantile(q));
    }
    report += "\n";
  }
  if (report.empty()) report = "(no histograms recorded)\n";
  return report;
}

std::vector<BehavioralWorker> MakeWorkers(const Catalog& catalog, size_t count,
                                          uint64_t seed) {
  std::vector<BehavioralWorker> workers;
  workers.reserve(count);
  for (size_t s = 0; s < count; ++s) {
    Rng rng(seed + 1000 + s);
    const BehaviorParams params = SampleBehaviorParams(&rng);
    KeywordVector interests(catalog.space.size());
    for (int b = 0; b < 5; ++b) {
      interests.Set(
          static_cast<KeywordId>(rng.NextBounded(catalog.space.size())));
    }
    workers.emplace_back(&catalog.tasks, DistanceKind::kJaccard,
                         Worker(s + 1, std::move(interests)), params,
                         rng.Fork(1));
  }
  return workers;
}

int Run(const ExportConfig& config) {
  metrics::OverrideEnabled(true);
  if (!config.trace.empty()) trace::OverridePathForTesting(config.trace);

  CatalogOptions catalog_options;
  catalog_options.num_groups = 15;
  catalog_options.tasks_per_group = 40;
  catalog_options.vocabulary_size = 150;
  catalog_options.seed = config.seed;
  auto catalog = GenerateCatalog(catalog_options);
  HTA_CHECK(catalog.ok()) << catalog.status();

  ShardedServiceOptions service_options;
  service_options.service.strategy = StrategyKind::kHtaGre;
  service_options.service.xmax = 6;
  service_options.service.extra_random_tasks = 2;
  service_options.service.refresh_after_completions = 3;
  service_options.service.max_tasks_per_iteration = 100;
  service_options.service.seed = config.seed;
  ShardedAssignmentService service(&catalog->tasks, service_options);

  auto workers = MakeWorkers(*catalog, config.workers, config.seed);
  ConcurrentDeploymentOptions deployment;
  deployment.arrival_rate_per_min = config.arrival_rate;
  deployment.session.max_minutes = config.minutes;
  deployment.seed = config.seed + 101;
  RunConcurrentDeployment(&service, *catalog, &workers, deployment);

  if (!config.trace.empty()) trace::Flush();

  std::string report;
  if (config.quantiles) {
    report = QuantileReport(metrics::Snapshot());
  } else if (config.digest) {
    report = metrics::DeterministicDigest();
  } else {
    report = metrics::SnapshotJson();
  }
  if (config.out.empty()) {
    std::cout << report << "\n";
  } else {
    std::ofstream out(config.out, std::ios::trunc);
    if (!out.good()) {
      std::cerr << "error: cannot open " << config.out << "\n";
      return 1;
    }
    out << report << "\n";
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ExportConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--workers") {
      const char* v = next();
      if (v == nullptr) return Usage();
      config.workers = static_cast<size_t>(std::atoll(v));
    } else if (arg == "--minutes") {
      const char* v = next();
      if (v == nullptr) return Usage();
      config.minutes = std::atof(v);
    } else if (arg == "--arrival-rate") {
      const char* v = next();
      if (v == nullptr) return Usage();
      config.arrival_rate = std::atof(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return Usage();
      config.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--digest") {
      config.digest = true;
    } else if (arg == "--quantiles") {
      config.quantiles = true;
    } else if (arg == "--out") {
      const char* v = next();
      if (v == nullptr) return Usage();
      config.out = v;
    } else if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return Usage();
      config.trace = v;
    } else {
      return Usage();
    }
  }
  if (config.workers == 0 || config.minutes <= 0.0 ||
      config.arrival_rate <= 0.0) {
    return Usage();
  }
  return Run(config);
}
