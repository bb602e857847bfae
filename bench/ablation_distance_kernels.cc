// A12 — Ablation: the batched SoA distance kernel (core/packed_set.h)
// vs a bench-local per-pair PairwiseTaskDiversity loop (the scalar
// reference the kernel replicates), for every DistanceKind, on the hot
// O(|T|^2) sweep behind the Fig. 2 scaling runs: the fused
// positive-weight diversity-edge emission (BuildDiversityEdges). Every
// comparison also asserts the two paths produce identical edges, so the
// bench doubles as a coarse equivalence check. BuildDiversityEdges
// returns its edges in the greedy matching's order; the scalar loop is
// timed row-major, as before, and sorted into that order after its
// timer stops, so the batched column also pays for the ordering.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "core/distance_oracle.h"
#include "matching/max_weight_matching.h"
#include "util/table.h"
#include "util/timer.h"

namespace hta {
namespace {

// Scalar edges: the positive-weight pairs in row-major order.
std::vector<WeightedEdge> ScalarEdges(const std::vector<Task>& tasks,
                                      DistanceKind kind) {
  std::vector<WeightedEdge> edges;
  for (size_t i = 0; i < tasks.size(); ++i) {
    for (size_t j = i + 1; j < tasks.size(); ++j) {
      const float w = static_cast<float>(
          PairwiseTaskDiversity(kind, tasks[i], tasks[j]));
      if (w > 0.0f) {
        edges.push_back(WeightedEdge{static_cast<VertexId>(i),
                                     static_cast<VertexId>(j), w});
      }
    }
  }
  return edges;
}

}  // namespace
}  // namespace hta

int main() {
  using namespace hta;
  bench::PrintBanner("ablation: batched vs scalar distance kernels",
                     "O(|T|^2) edge sweep behind Fig. 2");

  std::vector<size_t> sizes;
  switch (GetBenchScale()) {
    case BenchScale::kSmoke:
      sizes = {500};
      break;
    case BenchScale::kDefault:
    case BenchScale::kPaper:
      // The edge list holds ~n^2/2 12-byte entries: ~96 MB at
      // |T| = 4000 but ~600 MB at 10^4, so the paper scale stops at 4000.
      sizes = {2000, 4000};
      break;
  }

  const DistanceKind kinds[] = {DistanceKind::kJaccard, DistanceKind::kDice,
                                DistanceKind::kHamming,
                                DistanceKind::kCosineAngular};

  TableWriter table({"|T|", "kind", "sweep", "max_threads", "scalar (ms)",
                     "batched (ms)", "speedup"});

  const auto record = [&](size_t n, DistanceKind kind, const char* sweep,
                          size_t max_threads, double scalar_ms,
                          double batched_ms) {
    table.AddRow({FmtInt(static_cast<long long>(n)), DistanceKindName(kind),
                  sweep, FmtInt(static_cast<long long>(max_threads)),
                  FmtDouble(scalar_ms, 1), FmtDouble(batched_ms, 1),
                  FmtDouble(scalar_ms / batched_ms, 2)});
    for (const bool batched : {false, true}) {
      bench::AppendBenchJson(
          "ablation_distance_kernels",
          {{"n", bench::JsonNum(static_cast<double>(n))},
           {"kind", bench::JsonStr(DistanceKindName(kind))},
           {"sweep", bench::JsonStr(sweep)},
           {"kernel", bench::JsonStr(batched ? "batched" : "scalar")},
           {"max_threads",
            bench::JsonNum(static_cast<double>(max_threads))},
           {"speedup", bench::JsonNum(scalar_ms / batched_ms)}},
          (batched ? batched_ms : scalar_ms) / 1000.0);
    }
  };

  for (const size_t n : sizes) {
    const auto workload = bench::MakeOfflineWorkload(n / 20, 20, n / 40);
    const std::vector<Task>& tasks = workload.catalog.tasks;

    for (const DistanceKind kind : kinds) {
      const TaskDistanceOracle on_the_fly(&tasks, kind);

      // Fused positive-weight emission vs per-pair scalar calls,
      // single-thread (the acceptance configuration).
      WallTimer timer;
      std::vector<WeightedEdge> scalar_edges = ScalarEdges(tasks, kind);
      const double scalar_ms = timer.ElapsedMillis();
      std::stable_sort(scalar_edges.begin(), scalar_edges.end(),
                       [](const WeightedEdge& a, const WeightedEdge& b) {
                         return a.weight > b.weight;
                       });
      timer.Restart();
      const std::vector<WeightedEdge> batched_edges =
          BuildDiversityEdges(on_the_fly, /*max_threads=*/1);
      const double batched_ms = timer.ElapsedMillis();
      HTA_CHECK(scalar_edges.size() == batched_edges.size());
      for (size_t e = 0; e < scalar_edges.size(); ++e) {
        HTA_CHECK(scalar_edges[e].u == batched_edges[e].u &&
                  scalar_edges[e].v == batched_edges[e].v &&
                  scalar_edges[e].weight == batched_edges[e].weight)
            << "edge mismatch at " << e;
      }
      record(n, kind, "edges", 1, scalar_ms, batched_ms);
    }
  }

  table.Print(std::cout);
  std::cout << "\nexpected: the batched SoA kernel beats the per-pair "
               "scalar path by >= 5x on the\nedge sweep (one fused "
               "popcount loop per pair, no virtual-call or\n"
               "pointer-chasing overhead).\n";
  return 0;
}
