// A3 — Ablation: the M_B construction (Algorithm 1, Line 2). Greedy
// sorted-edge matching (the paper's choice) vs Drake-Hougardy
// path-growing: both are 1/2-approximations, but with different
// constants and costs. Times are the median of five calls on the same
// edge list.
#include <algorithm>
#include <iostream>
#include <utility>
#include <vector>

#include "assign/hta_solver.h"
#include "bench/bench_common.h"
#include "matching/max_weight_matching.h"
#include "util/table.h"
#include "util/timer.h"

int main() {
  using namespace hta;
  bench::PrintBanner("ablation: M_B matching algorithm",
                     "Algorithm 1 Line 2 (greedy vs path-growing)");

  std::vector<size_t> sizes;
  switch (GetBenchScale()) {
    case BenchScale::kSmoke:
      sizes = {200};
      break;
    case BenchScale::kDefault:
      sizes = {400, 800, 1600};
      break;
    case BenchScale::kPaper:
      sizes = {1000, 2000, 4000, 8000};
      break;
  }

  TableWriter table({"|T|", "method", "matching weight", "time (ms)",
                     "end-to-end motivation"});
  for (size_t n : sizes) {
    const auto workload = bench::MakeOfflineWorkload(n / 20, 20, n / 40);
    auto problem =
        HtaProblem::Create(&workload.catalog.tasks, &workload.workers, 10);
    HTA_CHECK(problem.ok()) << problem.status();

    // Direct matching comparison on B. BuildDiversityEdges keeps only
    // w > 0 edges (zero-weight pairs can never enter either matching),
    // which avoids materializing the full n(n-1)/2 edge list.
    const std::vector<WeightedEdge> edges =
        BuildDiversityEdges(problem->oracle());
    for (const bool greedy : {true, false}) {
      // Median of kRepeats timed calls. Greedy consumes its edge list,
      // so each call gets a copy made before the timer starts.
      constexpr size_t kRepeats = 5;
      std::vector<double> times_ms;
      GraphMatching m;
      for (size_t r = 0; r < kRepeats; ++r) {
        std::vector<WeightedEdge> copy;
        if (greedy) copy = edges;
        WallTimer timer;
        m = greedy ? GreedyMaxWeightMatching(n, std::move(copy))
                   : PathGrowingMatching(n, edges);
        times_ms.push_back(timer.ElapsedMillis());
      }
      std::sort(times_ms.begin(), times_ms.end());
      const double ms = times_ms[kRepeats / 2];

      HtaSolverOptions options;
      options.matching =
          greedy ? MatchingMethod::kGreedy : MatchingMethod::kPathGrowing;
      auto result = SolveHta(*problem, options);
      HTA_CHECK(result.ok()) << result.status();

      table.AddRow({FmtInt(static_cast<long long>(n)),
                    greedy ? "greedy" : "path-growing",
                    FmtDouble(m.total_weight, 1), FmtDouble(ms, 1),
                    FmtDouble(result->stats.motivation, 1)});
      bench::AppendBenchJson(
          "ablation_matching",
          {{"n", bench::JsonNum(static_cast<double>(n))},
           {"method", bench::JsonStr(greedy ? "greedy" : "path-growing")},
           {"matching_weight", bench::JsonNum(m.total_weight)},
           {"motivation", bench::JsonNum(result->stats.motivation)}},
          ms / 1000.0);
    }
  }
  table.Print(std::cout);
  std::cout << "\nexpected: greedy finds a slightly heavier matching (it "
               "orders edges globally,\nwith a linear-time radix sort); "
               "path-growing needs no global order. End-to-end "
               "motivation differs marginally — the paper's greedy choice "
               "is safe.\n";
  return 0;
}
