#ifndef HTA_BENCH_BENCH_COMMON_H_
#define HTA_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/catalog.h"
#include "sim/worker_gen.h"
#include "util/check.h"
#include "util/env.h"
#include "util/json.h"
#include "util/metrics.h"

namespace hta::bench {

/// Builds the AMT-like offline workload of Section V-B: `num_groups`
/// task groups with `tasks_per_group` tasks each, and synthetic workers
/// with five uniform keywords and random (alpha, beta).
struct OfflineWorkload {
  Catalog catalog;
  std::vector<Worker> workers;
};

inline OfflineWorkload MakeOfflineWorkload(size_t num_groups,
                                           size_t tasks_per_group,
                                           size_t num_workers,
                                           uint64_t seed = 7) {
  CatalogOptions catalog_options;
  catalog_options.num_groups = num_groups;
  catalog_options.tasks_per_group = tasks_per_group;
  catalog_options.vocabulary_size = 1000;
  catalog_options.seed = seed;
  auto catalog = GenerateCatalog(catalog_options);
  HTA_CHECK(catalog.ok()) << catalog.status();

  WorkerGenOptions worker_options;
  worker_options.count = num_workers;
  worker_options.seed = seed + 1;
  auto workers = GenerateWorkers(worker_options, *catalog);
  HTA_CHECK(workers.ok()) << workers.status();

  OfflineWorkload w;
  w.catalog = std::move(*catalog);
  w.workers = std::move(*workers);
  return w;
}

/// Prints the standard bench banner with the active scale.
inline void PrintBanner(const char* title, const char* paper_ref) {
  std::cout << "=== " << title << " ===\n"
            << "reproduces: " << paper_ref << "\n"
            << "scale: " << BenchScaleName(GetBenchScale())
            << "  (set HTA_BENCH_SCALE=smoke|default|paper)\n\n";
}

/// JSON fragment for a numeric param value. NaN/Inf have no JSON
/// representation and serialize as null (util/json.h).
inline std::string JsonNum(double v) { return JsonNumber(v); }

/// JSON fragment for a string param value (quoted, fully escaped —
/// including control characters, which a backslash-only escape pass
/// used to emit verbatim and thereby corrupt the record).
inline std::string JsonStr(const std::string& s) { return JsonQuote(s); }

/// The thread count the global pool actually runs with: HTA_THREADS
/// when set, otherwise the hardware concurrency (what util/parallel.h
/// resolves "auto" to).
inline int ResolvedBenchThreads() {
  const int requested = GetHtaThreads();
  if (requested > 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

/// Appends one machine-readable record to the file named by
/// HTA_BENCH_JSON (JSON Lines; one object per line):
///   {"bench": ..., "scale": ..., "threads": ...,
///    "hardware_concurrency": ..., "params": {...}, "seconds": ...}
/// `threads` is the resolved HTA_THREADS value (hardware concurrency
/// when unset) and `hardware_concurrency` the machine's parallelism, so
/// records written in different environments stay comparable. No-op
/// when the variable is unset. Param values are raw JSON fragments —
/// build them with JsonNum / JsonStr. With HTA_METRICS=1 the record
/// additionally carries a "metrics" object: `metrics_snapshot`, a
/// metrics::SnapshotJson() the caller took when the recorded run ended,
/// so a bench that appends after several runs attributes each snapshot
/// to its own run.
inline void AppendBenchJson(
    const std::string& bench,
    const std::vector<std::pair<std::string, std::string>>& params,
    double seconds, const std::string& metrics_snapshot) {
  const std::string path = GetEnvOr("HTA_BENCH_JSON", "");
  if (path.empty()) return;
  std::ofstream out(path, std::ios::app);
  HTA_CHECK(out.good()) << "cannot open HTA_BENCH_JSON file: " << path;
  out << "{\"bench\": " << JsonStr(bench)
      << ", \"scale\": " << JsonStr(BenchScaleName(GetBenchScale()))
      << ", \"threads\": " << ResolvedBenchThreads()
      << ", \"hardware_concurrency\": "
      << std::thread::hardware_concurrency() << ", \"params\": {";
  for (size_t i = 0; i < params.size(); ++i) {
    if (i > 0) out << ", ";
    out << JsonStr(params[i].first) << ": " << params[i].second;
  }
  out << "}, \"seconds\": " << JsonNum(seconds);
  if (metrics::Enabled()) {
    out << ", \"metrics\": " << metrics_snapshot;
  }
  out << "}\n";
}

/// As above, with the registry snapshot taken at append time.
inline void AppendBenchJson(
    const std::string& bench,
    const std::vector<std::pair<std::string, std::string>>& params,
    double seconds) {
  AppendBenchJson(bench, params, seconds,
                  metrics::Enabled() ? metrics::SnapshotJson() : "");
}

}  // namespace hta::bench

#endif  // HTA_BENCH_BENCH_COMMON_H_
