// A5 — Micro-benchmarks (google-benchmark): the hot kernels under the
// HTA pipeline — distance computation, set-diversity evaluation, greedy
// matching, the LSAP solvers at small n, and the local-search delta
// evaluators (incremental tables vs the naive reference).
#include <benchmark/benchmark.h>

#include <memory>

#include "assign/assignment.h"
#include "assign/local_search.h"
#include "matching/lsap.h"
#include "matching/max_weight_matching.h"
#include "reference/naive_deltas.h"
#include "sim/catalog.h"
#include "util/rng.h"

namespace hta {
namespace {

using reference::NaiveReplaceDelta;
using reference::NaiveInsertDelta;

Catalog MakeCatalog(size_t tasks) {
  CatalogOptions options;
  options.num_groups = std::max<size_t>(tasks / 20, 1);
  options.tasks_per_group = 20;
  options.vocabulary_size = 1000;
  auto c = GenerateCatalog(options);
  HTA_CHECK(c.ok());
  return std::move(*c);
}

void BM_JaccardDistance(benchmark::State& state) {
  const Catalog catalog = MakeCatalog(256);
  const size_t n = catalog.size();
  size_t i = 0;
  for (auto _ : state) {
    const double d = PairwiseTaskDiversity(
        DistanceKind::kJaccard, catalog.tasks[i % n],
        catalog.tasks[(i * 7 + 1) % n]);
    benchmark::DoNotOptimize(d);
    ++i;
  }
}
BENCHMARK(BM_JaccardDistance);

void BM_SetDiversity(benchmark::State& state) {
  const Catalog catalog = MakeCatalog(256);
  const TaskDistanceOracle oracle(&catalog.tasks, DistanceKind::kJaccard);
  TaskBundle bundle;
  for (TaskIndex t = 0; t < state.range(0); ++t) {
    bundle.push_back(static_cast<TaskIndex>((t * 3) % catalog.size()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(SetDiversity(bundle, oracle));
  }
}
BENCHMARK(BM_SetDiversity)->Arg(5)->Arg(15)->Arg(40);

void BM_GreedyMatching(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Catalog catalog = MakeCatalog(n);
  const TaskDistanceOracle oracle(&catalog.tasks, DistanceKind::kJaccard);
  for (auto _ : state) {
    benchmark::DoNotOptimize(GreedyMaxWeightMatching(
        oracle.task_count(), BuildDiversityEdges(oracle)));
  }
}
BENCHMARK(BM_GreedyMatching)->Arg(100)->Arg(200)->Arg(400);

void BM_LsapGreedy(benchmark::State& state) {
  // Unstructured square profits: every column its own group, so the
  // group-major table is the n x n matrix's transpose.
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> table(n * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) table[j * n + i] = rng.NextDouble();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SolveLsapGreedy(n, table, /*group_count=*/n, /*group_size=*/1));
  }
}
BENCHMARK(BM_LsapGreedy)->Arg(50)->Arg(100)->Arg(200);

void BM_LsapExact(benchmark::State& state) {
  // HTA-shaped instance: n / 40 groups of 10 columns (|W| workers of
  // Xmax = 10), one random profit per (row, group), group-major.
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t group_count = n / 40;
  const size_t group_size = 10;
  Rng rng(5);
  std::vector<double> table(group_count * n);
  for (size_t i = 0; i < n; ++i) {
    for (size_t g = 0; g < group_count; ++g) {
      table[g * n + i] = rng.NextDouble();
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        SolveLsapExact(n, table, group_count, group_size));
  }
}
BENCHMARK(BM_LsapExact)->Arg(200)->Arg(400)->Arg(800);

/// Fixture for the delta-evaluation kernels: a 256-task catalog, 8
/// workers, and an assignment whose bundles hold `bundle_size` tasks
/// each; the remaining tasks are probe candidates.
struct DeltaFixture {
  Catalog catalog;
  std::vector<Worker> workers;
  std::unique_ptr<HtaProblem> problem;
  Assignment assignment;

  explicit DeltaFixture(size_t bundle_size) : catalog(MakeCatalog(256)) {
    Rng rng(11);
    for (WorkerIndex q = 0; q < 8; ++q) {
      const double alpha = 0.2 + 0.6 * rng.NextDouble();
      workers.emplace_back(q, catalog.tasks[q * 3].keywords(),
                           MotivationWeights{alpha, 1.0 - alpha});
    }
    auto p = HtaProblem::Create(&catalog.tasks, &workers, bundle_size);
    HTA_CHECK(p.ok()) << p.status();
    problem = std::make_unique<HtaProblem>(std::move(*p));
    assignment.bundles.assign(workers.size(), {});
    TaskIndex next = 0;
    for (TaskBundle& bundle : assignment.bundles) {
      for (size_t i = 0; i < bundle_size; ++i) bundle.push_back(next++);
    }
  }
};

void BM_ReplaceDeltaIncremental(benchmark::State& state) {
  DeltaFixture f(static_cast<size_t>(state.range(0)));
  const BundleStatsCache cache(*f.problem, &f.assignment);
  const size_t first_free = f.workers.size() * state.range(0);
  size_t i = 0;
  for (auto _ : state) {
    const TaskIndex in = static_cast<TaskIndex>(
        first_free + (i * 7) % (f.catalog.size() - first_free));
    benchmark::DoNotOptimize(
        cache.ReplaceDelta(static_cast<WorkerIndex>(i % f.workers.size()),
                           i % static_cast<size_t>(state.range(0)), in));
    ++i;
  }
}
BENCHMARK(BM_ReplaceDeltaIncremental)->Arg(5)->Arg(20);

void BM_ReplaceDeltaNaive(benchmark::State& state) {
  DeltaFixture f(static_cast<size_t>(state.range(0)));
  const size_t first_free = f.workers.size() * state.range(0);
  size_t i = 0;
  for (auto _ : state) {
    const WorkerIndex q = static_cast<WorkerIndex>(i % f.workers.size());
    const TaskIndex in = static_cast<TaskIndex>(
        first_free + (i * 7) % (f.catalog.size() - first_free));
    benchmark::DoNotOptimize(
        NaiveReplaceDelta(*f.problem, f.assignment.bundles[q],
                          i % static_cast<size_t>(state.range(0)), in, q));
    ++i;
  }
}
BENCHMARK(BM_ReplaceDeltaNaive)->Arg(5)->Arg(20);

void BM_InsertDeltaIncremental(benchmark::State& state) {
  DeltaFixture f(static_cast<size_t>(state.range(0)));
  const BundleStatsCache cache(*f.problem, &f.assignment);
  const size_t first_free = f.workers.size() * state.range(0);
  size_t i = 0;
  for (auto _ : state) {
    const TaskIndex in = static_cast<TaskIndex>(
        first_free + (i * 7) % (f.catalog.size() - first_free));
    benchmark::DoNotOptimize(cache.InsertDelta(
        static_cast<WorkerIndex>(i % f.workers.size()), in));
    ++i;
  }
}
BENCHMARK(BM_InsertDeltaIncremental)->Arg(5)->Arg(20);

void BM_InsertDeltaNaive(benchmark::State& state) {
  DeltaFixture f(static_cast<size_t>(state.range(0)));
  const size_t first_free = f.workers.size() * state.range(0);
  size_t i = 0;
  for (auto _ : state) {
    const WorkerIndex q = static_cast<WorkerIndex>(i % f.workers.size());
    const TaskIndex in = static_cast<TaskIndex>(
        first_free + (i * 7) % (f.catalog.size() - first_free));
    benchmark::DoNotOptimize(
        NaiveInsertDelta(*f.problem, f.assignment.bundles[q], in, q));
    ++i;
  }
}
BENCHMARK(BM_InsertDeltaNaive)->Arg(5)->Arg(20);

void BM_ExchangeDeltaIncremental(benchmark::State& state) {
  DeltaFixture f(static_cast<size_t>(state.range(0)));
  const BundleStatsCache cache(*f.problem, &f.assignment);
  const size_t bundle_size = static_cast<size_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const WorkerIndex q1 = static_cast<WorkerIndex>(i % (f.workers.size() - 1));
    benchmark::DoNotOptimize(
        cache.ExchangeDelta(q1, i % bundle_size,
                            static_cast<WorkerIndex>(q1 + 1),
                            (i * 3 + 1) % bundle_size));
    ++i;
  }
}
BENCHMARK(BM_ExchangeDeltaIncremental)->Arg(5)->Arg(20);

void BM_ExchangeDeltaNaive(benchmark::State& state) {
  DeltaFixture f(static_cast<size_t>(state.range(0)));
  const size_t bundle_size = static_cast<size_t>(state.range(0));
  size_t i = 0;
  for (auto _ : state) {
    const WorkerIndex q1 = static_cast<WorkerIndex>(i % (f.workers.size() - 1));
    const WorkerIndex q2 = static_cast<WorkerIndex>(q1 + 1);
    const size_t p1 = i % bundle_size;
    const size_t p2 = (i * 3 + 1) % bundle_size;
    const TaskBundle& b1 = f.assignment.bundles[q1];
    const TaskBundle& b2 = f.assignment.bundles[q2];
    benchmark::DoNotOptimize(
        NaiveReplaceDelta(*f.problem, b1, p1, b2[p2], q1) +
        NaiveReplaceDelta(*f.problem, b2, p2, b1[p1], q2));
    ++i;
  }
}
BENCHMARK(BM_ExchangeDeltaNaive)->Arg(5)->Arg(20);

void BM_MotivationEval(benchmark::State& state) {
  const Catalog catalog = MakeCatalog(256);
  const std::vector<Worker> workers = {Worker(
      0, catalog.tasks[0].keywords(), MotivationWeights{0.4, 0.6})};
  auto problem = HtaProblem::Create(&catalog.tasks, &workers, /*xmax=*/15);
  HTA_CHECK(problem.ok());
  TaskBundle bundle;
  for (TaskIndex t = 0; t < 15; ++t) {
    bundle.push_back(static_cast<TaskIndex>((t * 7) % catalog.size()));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(BundleMotivation(*problem, 0, bundle));
  }
}
BENCHMARK(BM_MotivationEval);

}  // namespace
}  // namespace hta

BENCHMARK_MAIN();
