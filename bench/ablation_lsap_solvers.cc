// A1 — Ablation: LSAP solver choice inside the HTA pipeline. Compares
// the exact (task, worker) transportation solve (HTA-APP) with the
// greedy 1/2-approximation (HTA-GRE) on the same auxiliary LSAP
// instances.
#include <iostream>

#include "bench/bench_common.h"
#include "matching/lsap.h"
#include "matching/max_weight_matching.h"
#include "qap/qap_view.h"
#include "util/table.h"
#include "util/timer.h"

int main() {
  using namespace hta;
  bench::PrintBanner("ablation: LSAP solvers",
                     "design choice behind HTA-APP vs HTA-GRE (Section IV)");

  std::vector<size_t> sizes;
  switch (GetBenchScale()) {
    case BenchScale::kSmoke:
      sizes = {100, 200};
      break;
    case BenchScale::kDefault:
      sizes = {200, 400, 800};
      break;
    case BenchScale::kPaper:
      sizes = {500, 1000, 2000, 4000};
      break;
  }

  TableWriter table(
      {"n", "solver", "profit", "vs exact", "time (ms)"});
  for (size_t n : sizes) {
    const auto workload =
        bench::MakeOfflineWorkload(n / 20, 20, std::max<size_t>(n / 40, 2));
    auto problem = HtaProblem::Create(&workload.catalog.tasks,
                                      &workload.workers, 10);
    HTA_CHECK(problem.ok()) << problem.status();
    const QapView view(&*problem);

    // Build the same auxiliary profit HTA uses (Algorithm 1, Line 10).
    const TaskDistanceOracle& oracle = problem->oracle();
    const GraphMatching mb = GreedyMaxWeightMatching(
        oracle.task_count(), BuildDiversityEdges(oracle));
    std::vector<double> bm(view.n(), 0.0);
    for (const auto& [u, v] : mb.edges) {
      bm[u] = bm[v] = oracle(u, v);
    }
    const size_t dim = view.n();
    const size_t workers = problem->worker_count();
    const size_t xmax = problem->xmax();
    // The group-major table both solvers read: f_{k, q*Xmax} at
    // [q * dim + k]. Each timed run tabulates it, probe by probe.
    auto tabulate = [&] {
      std::vector<double> table(workers * dim);
      for (size_t k = 0; k < dim; ++k) {
        for (size_t q = 0; q < workers; ++q) {
          table[q * dim + k] =
              bm[k] * view.DegA(q * xmax) + view.C(k, q * xmax);
        }
      }
      return table;
    };

    double exact_profit = 0.0;
    auto run = [&](const char* name, auto solve) {
      WallTimer timer;
      const LsapSolution s = solve();
      const double ms = timer.ElapsedMillis();
      if (std::string(name) == "exact") exact_profit = s.profit;
      table.AddRow({FmtInt(static_cast<long long>(dim)), name,
                    FmtDouble(s.profit, 1),
                    exact_profit > 0.0
                        ? FmtDouble(s.profit / exact_profit, 4)
                        : "-",
                    FmtDouble(ms, 2)});
      bench::AppendBenchJson(
          "ablation_lsap_solvers",
          {{"n", bench::JsonNum(static_cast<double>(dim))},
           {"solver", bench::JsonStr(name)},
           {"profit", bench::JsonNum(s.profit)}},
          ms / 1000.0);
    };
    // What HTA-APP and HTA-GRE run: worker q's Xmax columns are one
    // group.
    run("exact",
        [&] { return SolveLsapExact(dim, tabulate(), workers, xmax); });
    run("greedy (1/2)",
        [&] { return SolveLsapGreedy(dim, tabulate(), workers, xmax); });
  }
  table.Print(std::cout);
  std::cout << "\nexpected: greedy within 1% of the exact profit; both "
               "read one profit per (task, worker),\nso at these shapes "
               "the profit probes, not the solver, set both times.\n";
  return 0;
}
