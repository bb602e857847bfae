// A2 — Ablation: the random pair-swap step of Algorithm 1 (Lines
// 12-16). Compares no swap, the paper's random swap (averaged over
// seeds), and the derandomized best-of-two variant.
#include <iostream>

#include "assign/hta_solver.h"
#include "bench/bench_common.h"
#include "util/stats.h"
#include "util/table.h"

int main() {
  using namespace hta;
  bench::PrintBanner("ablation: pair-swap step",
                     "Algorithm 1 Lines 12-16 (random vs best-of-two vs none)");

  size_t tasks = 600;
  size_t workers = 20;
  size_t seeds = 8;
  switch (GetBenchScale()) {
    case BenchScale::kSmoke:
      tasks = 200;
      workers = 8;
      seeds = 4;
      break;
    case BenchScale::kDefault:
      break;
    case BenchScale::kPaper:
      tasks = 4000;
      workers = 100;
      break;
  }

  const auto workload = bench::MakeOfflineWorkload(tasks / 20, 20, workers);
  auto problem =
      HtaProblem::Create(&workload.catalog.tasks, &workload.workers, 10);
  HTA_CHECK(problem.ok()) << problem.status();

  TableWriter table({"lsap", "swap mode", "motivation (mean)",
                     "motivation (stddev)"});
  for (const LsapMethod lsap : {LsapMethod::kExactJv, LsapMethod::kGreedy}) {
    for (const SwapMode swap :
         {SwapMode::kNone, SwapMode::kRandom, SwapMode::kBestOfTwo}) {
      RunningStat stat;
      const size_t trials = swap == SwapMode::kRandom ? seeds : 1;
      for (size_t s = 0; s < trials; ++s) {
        HtaSolverOptions options;
        options.lsap = lsap;
        options.swap = swap;
        options.seed = 100 + s;
        auto result = SolveHta(*problem, options);
        HTA_CHECK(result.ok()) << result.status();
        stat.Add(result->stats.motivation);
      }
      const char* swap_name = swap == SwapMode::kNone
                                  ? "none"
                                  : (swap == SwapMode::kRandom
                                         ? "random (paper)"
                                         : "best-of-two");
      table.AddRow({lsap == LsapMethod::kExactJv ? "exact" : "greedy",
                    swap_name, FmtDouble(stat.mean(), 1),
                    FmtDouble(stat.stddev(), 2)});
    }
  }
  table.Print(std::cout);
  std::cout << "\nexpected: best-of-two >= no-swap always; the random swap's "
               "mean sits between them.\nThe swap step's contribution is "
               "what lifts the diversity term captured via M_B.\n";
  return 0;
}
