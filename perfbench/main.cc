// perfbench: runs one workload and prints a report line and, as
// the last line of stdout, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Usually invoked through perfbench/run.py, which builds it.
#include <malloc.h>

#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "harness.h"
#include "util/json.h"
#include "util/parallel.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Metric;

/// Environment pinning, before any libhta call reads it: a fixed
/// two-thread pool, and none of the knobs that would retarget the
/// services (behaviour is selected through option fields only).
void PinEnvironment() {
  setenv("HTA_THREADS", "2", /*overwrite=*/1);
  for (const char* name :
       {"HTA_SHARDS", "HTA_DRIVER_THREADS", "HTA_WARM_START", "HTA_WARM_CACHE",
        "HTA_WARM_CACHE_BYTES", "HTA_SESSION_REL_BYTES", "HTA_AUDIT",
        "HTA_METRICS", "HTA_TRACE", "HTA_BENCH_JSON", "HTA_BENCH_SCALE"}) {
    unsetenv(name);
  }
}

/// Allocator pinning: freed memory stays in the process (no heap trim,
/// no per-allocation mmap), so after the warm-up pass the per-refresh
/// edge lists and per-session relevance rows reuse resident pages
/// instead of faulting fresh ones in. Page-fault cost under a hypervisor
/// varies with the host and would otherwise land in the samples.
void PinAllocator() {
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's maximum.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  mallopt(M_TOP_PAD, 64 << 20);
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += hta::JsonQuote(metrics[i].name) + ": {\"value\": " +
           hta::JsonNumber(metrics[i].value) +
           ", \"unit\": " + hta::JsonQuote(metrics[i].unit) + "}";
  }
  return out + "}";
}

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <serve_sharded|offline_fig2> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <path>]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  PinEnvironment();
  PinAllocator();
  perfbench::RunConfig config;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("every flag takes a value");
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");
  const bool serve = config.workload == "serve_sharded";
  if (!serve && config.workload != "offline_fig2") {
    return Usage("unknown workload");
  }

  const perfbench::Clock::time_point origin = perfbench::Clock::now();
  perfbench::SpanLog spans(config.trace, 0);
  perfbench::RunReport report = serve ? perfbench::RunServe(config, &spans)
                                      : perfbench::RunOffline(config, &spans);
  report.end_to_end.push_back({"peak_rss_mb", perfbench::PeakRssMb(), "MB"});
  if (config.trace) {
    report.per_layer.push_back(
        {"trace.spans", static_cast<double>(spans.spans().size()), "count"});
    if (!trace_out.empty() &&
        !perfbench::WriteChromeTrace(trace_out, spans, origin)) {
      report.errors.push_back("cannot write trace file " + trace_out);
    }
  }

  std::string errors = "[";
  for (size_t i = 0; i < report.errors.size(); ++i) {
    errors += (i > 0 ? ", " : "") + hta::JsonQuote(report.errors[i]);
  }
  errors += "]";
  std::cout << "report {\"workload\": " << hta::JsonQuote(config.workload)
            << ", \"seed\": " << config.seed << ", \"trace\": " << config.trace
            << ", \"pool_threads\": "
            << hta::ThreadPool::Global().thread_count()
            << ", \"hardware_concurrency\": "
            << std::thread::hardware_concurrency()
            << ", \"build_type\": " << hta::JsonQuote(PERFBENCH_BUILD_TYPE)
            << ", \"errors\": " << errors
            << ", \"figures\": " << MetricsJson(report.detail)
            << ", \"end_to_end\": " << MetricsJson(report.end_to_end)
            << ", \"per_layer\": " << MetricsJson(report.per_layer) << "}\n";
  std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": "
            << MetricsJson(config.trace ? report.per_layer : report.end_to_end)
            << "}" << std::endl;
  return 0;
}
