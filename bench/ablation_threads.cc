// A11 — Ablation: serial vs multi-threaded execution of the parallel
// compute layer (util/parallel.h). Times the O(|T|^2) diversity edge
// build and the end-to-end HTA-APP solve, first capped to one thread
// and then across the full pool, and checks the determinism contract:
// every output (edges, bundles, motivation, certified ratio) must be
// bit-identical.
//
// Thread count comes from HTA_THREADS (default: hardware concurrency);
// run with HTA_THREADS=1 to sanity-check the fully serial pool. On a
// single-core host the "parallel" columns measure pool overhead, not
// speedup.
#include <iostream>

#include "assign/hta_solver.h"
#include "bench/bench_common.h"
#include "util/parallel.h"
#include "util/table.h"
#include "util/timer.h"

int main() {
  using namespace hta;
  bench::PrintBanner("ablation: serial vs multi-threaded kernels",
                     "parallel compute layer (extension; paper is serial)");

  size_t tasks = 4000;
  size_t workers = 100;
  size_t xmax = 10;
  size_t tasks_per_group = 50;
  switch (GetBenchScale()) {
    case BenchScale::kSmoke:
      tasks = 600;
      workers = 20;
      xmax = 5;
      tasks_per_group = 20;
      break;
    case BenchScale::kDefault:
      break;
    case BenchScale::kPaper:
      tasks = 10000;
      workers = 200;
      xmax = 20;
      tasks_per_group = 200;
      break;
  }

  const size_t pool_threads = ThreadPool::Global().thread_count();
  std::cout << "|T| = " << tasks << ", |W| = " << workers
            << ", Xmax = " << xmax << ", pool threads = " << pool_threads
            << "  (set HTA_THREADS=N)\n\n";

  const auto workload = bench::MakeOfflineWorkload(
      tasks / tasks_per_group, tasks_per_group, workers);
  auto problem =
      HtaProblem::Create(&workload.catalog.tasks, &workload.workers, xmax);
  HTA_CHECK(problem.ok()) << problem.status();

  TableWriter table({"kernel", "serial (s)", "parallel (s)", "speedup",
                     "identical"});
  WallTimer timer;
  auto add_row = [&](const char* kernel, double serial_s, double parallel_s,
                     bool identical) {
    table.AddRow({kernel, FmtDouble(serial_s), FmtDouble(parallel_s),
                  FmtDouble(parallel_s > 0.0 ? serial_s / parallel_s : 0.0),
                  identical ? "yes" : "NO"});
    HTA_CHECK(identical) << kernel
                         << ": parallel result diverged from serial";
  };

  // Diversity edge build (sharded row blocks).
  timer.Restart();
  const auto edges_serial = BuildDiversityEdges(problem->oracle(),
                                                /*max_threads=*/1);
  const double edges_serial_s = timer.ElapsedSeconds();
  timer.Restart();
  const auto edges_parallel = BuildDiversityEdges(problem->oracle());
  const double edges_parallel_s = timer.ElapsedSeconds();
  bool edges_identical = edges_serial.size() == edges_parallel.size();
  for (size_t e = 0; edges_identical && e < edges_serial.size(); ++e) {
    edges_identical = edges_serial[e].u == edges_parallel[e].u &&
                      edges_serial[e].v == edges_parallel[e].v &&
                      edges_serial[e].weight == edges_parallel[e].weight;
  }
  add_row("diversity edges", edges_serial_s, edges_parallel_s,
          edges_identical);

  // End-to-end HTA-APP (matching + tabulated-profit exact LSAP +
  // extraction).
  HtaSolverOptions options;
  options.lsap = LsapMethod::kExactJv;
  options.seed = 42;
  options.threads = 1;
  timer.Restart();
  auto solve_serial = SolveHta(*problem, options);
  const double solve_serial_s = timer.ElapsedSeconds();
  HTA_CHECK(solve_serial.ok()) << solve_serial.status();
  options.threads = 0;
  timer.Restart();
  auto solve_parallel = SolveHta(*problem, options);
  const double solve_parallel_s = timer.ElapsedSeconds();
  HTA_CHECK(solve_parallel.ok()) << solve_parallel.status();
  add_row("SolveHtaApp end-to-end", solve_serial_s, solve_parallel_s,
          solve_serial->stats.motivation ==
                  solve_parallel->stats.motivation &&
              solve_serial->stats.certified_ratio ==
                  solve_parallel->stats.certified_ratio &&
              solve_serial->assignment.bundles ==
                  solve_parallel->assignment.bundles);

  table.Print(std::cout);
  std::cout << "\nexpected shape: on an N-core host the edge build "
               "approaches Nx speedup\n(embarrassingly parallel rows). The "
               "identical column certifies the determinism\ncontract: "
               "HTA_THREADS only changes wall time, never results.\n";
  return 0;
}
