// A12 — Ablation: batched SoA distance kernels (core/packed_set.h) vs
// bench-local per-pair PairwiseTaskDiversity loops (the scalar
// reference the kernels replicate), for every DistanceKind, over
// the three hot sweep shapes behind the Fig. 2 scaling runs:
//   all_pairs   — the triangular precomputed-cache fill
//                 (TaskDistanceOracle::Precomputed);
//   edges       — the fused positive-weight diversity-edge emission
//                 (BuildDiversityEdges);
//   one_vs_many — one task's distance row against the whole catalog
//                 (dense QAP B rows, online re-solve probes).
// Every comparison also asserts the two paths produce identical
// results, so the bench doubles as a coarse equivalence check.
#include <iostream>
#include <vector>

#include "bench/bench_common.h"
#include "core/distance_oracle.h"
#include "core/packed_set.h"
#include "matching/max_weight_matching.h"
#include "util/parallel.h"
#include "util/table.h"
#include "util/timer.h"

namespace hta {
namespace {

// Scalar triangle: the precomputed cache's row-major strict upper
// triangle, one PairwiseTaskDiversity call per pair, parallelized over
// row blocks like the batched fill.
std::vector<float> ScalarTriangle(const std::vector<Task>& tasks,
                                  DistanceKind kind, size_t max_threads) {
  const size_t n = tasks.size();
  std::vector<float> tri(n * (n - 1) / 2);
  ParallelFor(
      0, n, /*grain=*/16,
      [&](size_t row_begin, size_t row_end) {
        for (size_t i = row_begin; i < row_end; ++i) {
          size_t at = i * n - i * (i + 1) / 2;
          for (size_t j = i + 1; j < n; ++j) {
            tri[at++] = static_cast<float>(
                PairwiseTaskDiversity(kind, tasks[i], tasks[j]));
          }
        }
      },
      max_threads);
  return tri;
}

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
                     "O(|T|^2) / O(|T|*|W|) sweeps behind Fig. 2");

  std::vector<size_t> sizes;
  switch (GetBenchScale()) {
    case BenchScale::kSmoke:
      sizes = {500};
      break;
    case BenchScale::kDefault:
      sizes = {2000, 4000};
      break;
    case BenchScale::kPaper:
      sizes = {2000, 4000, 10000};
      break;
  }
  // The edge list holds ~n^2/2 12-byte entries: ~96 MB at |T| = 4000
  // but ~600 MB at 10^4, so the edge-emission comparison caps at 4000
  // (the cache-fill sweep covers the larger sizes).
  constexpr size_t kEdgeSweepCap = 4000;
  // Query rows timed by the one-vs-many sweep.
  constexpr size_t kQueryRows = 64;

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

      // --- all_pairs: triangular precomputed-cache fill, serial and
      // pool-parallel (the fill partitions deterministically, so the
      // caches are identical).
      for (const size_t max_threads : {size_t{1}, size_t{0}}) {
        WallTimer timer;
        const std::vector<float> scalar =
            ScalarTriangle(tasks, kind, max_threads);
        const double scalar_ms = timer.ElapsedMillis();
        timer.Restart();
        auto batched = TaskDistanceOracle::Precomputed(
            &tasks, kind, size_t{4} << 30, max_threads);
        const double batched_ms = timer.ElapsedMillis();
        HTA_CHECK(batched.ok()) << batched.status();
        const size_t n_tasks = tasks.size();
        for (size_t i = 0; i < n_tasks; i += 97) {
          for (size_t j = i + 1; j < n_tasks; j += 101) {
            const size_t at = i * n_tasks - i * (i + 1) / 2 + (j - i - 1);
            HTA_CHECK(static_cast<double>(scalar[at]) ==
                      (*batched)(static_cast<TaskIndex>(i),
                                 static_cast<TaskIndex>(j)))
                << "cache mismatch at (" << i << ", " << j << ")";
          }
        }
        record(n, kind, "all_pairs", max_threads, scalar_ms, batched_ms);
      }

      // --- edges: fused positive-weight emission vs per-pair scalar
      // calls, single-thread (the acceptance configuration).
      if (n <= kEdgeSweepCap) {
        WallTimer timer;
        const std::vector<WeightedEdge> scalar_edges = ScalarEdges(tasks, kind);
        const double scalar_ms = timer.ElapsedMillis();
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

      // --- one_vs_many: kQueryRows distance rows against the catalog.
      {
        const PackedSetMatrix packed = PackedSetMatrix::FromTasks(tasks);
        const size_t rows = std::min(tasks.size(), kQueryRows);
        std::vector<double> scalar_row(tasks.size());
        std::vector<double> batched_row(tasks.size());
        WallTimer timer;
        for (size_t i = 0; i < rows; ++i) {
          for (size_t j = 0; j < tasks.size(); ++j) {
            scalar_row[j] =
                i == j ? 0.0 : PairwiseTaskDiversity(kind, tasks[i], tasks[j]);
          }
        }
        const double scalar_ms = timer.ElapsedMillis();
        timer.Restart();
        for (size_t i = 0; i < rows; ++i) {
          OneVsManyDistances(packed, i, kind, batched_row.data(),
                             /*max_threads=*/1);
        }
        const double batched_ms = timer.ElapsedMillis();
        // batched_row holds the last queried row; re-derive its scalar
        // twin for the equivalence check.
        const size_t last = rows - 1;
        for (size_t j = 0; j < tasks.size(); ++j) {
          const double expect =
              last == j ? 0.0
                        : PairwiseTaskDiversity(kind, tasks[last], tasks[j]);
          HTA_CHECK(batched_row[j] == expect)
              << "one-vs-many mismatch at (" << last << ", " << j << ")";
        }
        record(n, kind, "one_vs_many", 1, scalar_ms, batched_ms);
      }
    }
  }

  table.Print(std::cout);
  std::cout << "\nexpected: the batched SoA kernels beat the per-pair "
               "scalar path by >= 5x on the\nall-pairs and edge sweeps "
               "(one fused popcount loop per pair, no virtual-call or\n"
               "pointer-chasing overhead); speedups persist at every "
               "thread count because both\npaths parallelize over the "
               "same deterministic partition.\n";
  return 0;
}
