// A11 — Ablation: serial vs multi-threaded execution of the parallel
// compute layer (util/parallel.h). Times each parallelized hot kernel
// — the O(|T|^2) pairwise-distance precompute, the diversity edge
// build, the QAP objective — and the end-to-end HTA-APP solve, first
// capped to one thread and then across the full pool, and checks the
// determinism contract: every output must be bit-identical.
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

  // O(|T|^2) pairwise-distance precompute (row blocks).
  timer.Restart();
  auto oracle_serial = TaskDistanceOracle::Precomputed(
      &workload.catalog.tasks, DistanceKind::kJaccard, size_t{4} << 30,
      /*max_threads=*/1);
  const double precompute_serial = timer.ElapsedSeconds();
  HTA_CHECK(oracle_serial.ok()) << oracle_serial.status();
  timer.Restart();
  auto oracle_parallel = TaskDistanceOracle::Precomputed(
      &workload.catalog.tasks, DistanceKind::kJaccard);
  const double precompute_parallel = timer.ElapsedSeconds();
  HTA_CHECK(oracle_parallel.ok()) << oracle_parallel.status();
  bool oracle_identical = true;
  for (size_t i = 0; i < tasks && oracle_identical; i += 7) {
    for (size_t j = i + 1; j < tasks; j += 13) {
      if ((*oracle_serial)(static_cast<TaskIndex>(i),
                           static_cast<TaskIndex>(j)) !=
          (*oracle_parallel)(static_cast<TaskIndex>(i),
                             static_cast<TaskIndex>(j))) {
        oracle_identical = false;
        break;
      }
    }
  }
  add_row("distance precompute", precompute_serial, precompute_parallel,
          oracle_identical);

  // Diversity edge build (sharded row blocks).
  timer.Restart();
  const auto edges_serial = BuildDiversityEdges(*oracle_serial,
                                                /*max_threads=*/1);
  const double edges_serial_s = timer.ElapsedSeconds();
  timer.Restart();
  const auto edges_parallel = BuildDiversityEdges(*oracle_parallel);
  const double edges_parallel_s = timer.ElapsedSeconds();
  bool edges_identical = edges_serial.size() == edges_parallel.size();
  for (size_t e = 0; edges_identical && e < edges_serial.size(); ++e) {
    edges_identical = edges_serial[e].u == edges_parallel[e].u &&
                      edges_serial[e].v == edges_parallel[e].v &&
                      edges_serial[e].weight == edges_parallel[e].weight;
  }
  add_row("diversity edges", edges_serial_s, edges_parallel_s,
          edges_identical);

  // QAP objective (blocked linear + per-clique reductions) on the
  // identity permutation.
  const QapView view(&*problem);
  std::vector<int32_t> perm(view.n());
  for (size_t k = 0; k < perm.size(); ++k) perm[k] = static_cast<int32_t>(k);
  timer.Restart();
  const double obj_serial = view.Objective(perm, /*max_threads=*/1);
  const double obj_serial_s = timer.ElapsedSeconds();
  timer.Restart();
  const double obj_parallel = view.Objective(perm);
  const double obj_parallel_s = timer.ElapsedSeconds();
  add_row("qap objective", obj_serial_s, obj_parallel_s,
          obj_serial == obj_parallel);

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
          solve_serial->stats.qap_objective ==
                  solve_parallel->stats.qap_objective &&
              solve_serial->stats.certified_ratio ==
                  solve_parallel->stats.certified_ratio &&
              solve_serial->assignment.bundles ==
                  solve_parallel->assignment.bundles);

  table.Print(std::cout);
  std::cout << "\nexpected shape: on an N-core host the distance precompute "
               "approaches Nx speedup\n(embarrassingly parallel rows); edge "
               "build and objective scale similarly but\ntouch more memory "
               "per flop. The identical column certifies the determinism\n"
               "contract: HTA_THREADS only changes wall time, never "
               "results.\n";
  return 0;
}
