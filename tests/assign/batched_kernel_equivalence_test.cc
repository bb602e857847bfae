// Equivalence net for the SoA distance kernels: on randomized
// instances, every production consumer of the batched kernels — the
// fused diversity-edge emission, the rel[t][q] relevance table, and the
// tabulated auxiliary-LSAP profits — must reproduce a test-local
// per-pair loop over the public scalar PairwiseTaskDiversity /
// TaskRelevance (or QapView entry) bit-for-bit, at every thread cap.
// This is what makes the kernels a pure performance change, invisible
// to results.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/catalog_cache.h"
#include "core/distance_oracle.h"
#include "matching/max_weight_matching.h"
#include "qap/qap_view.h"
#include "util/rng.h"

namespace hta {
namespace {

// Force a multi-threaded global pool before first use so thread caps
// above 1 really fan out, even on single-core CI machines.
const bool kForcePoolSize = [] {
  setenv("HTA_THREADS", "4", /*overwrite=*/0);
  return true;
}();

const DistanceKind kAllKinds[] = {DistanceKind::kJaccard, DistanceKind::kDice,
                                  DistanceKind::kHamming,
                                  DistanceKind::kCosineAngular};
const size_t kThreadCaps[] = {0, 1, 2, 4};

struct Instance {
  std::vector<Task> tasks;
  std::vector<Worker> workers;
};

// Universe 100 on purpose: a tail block with 36 padding bits, so the
// batched kernels run against rows where the invariant actually
// matters, not just whole-block universes.
Instance MakeInstance(size_t num_tasks, size_t num_workers, uint64_t seed) {
  Rng rng(seed);
  Instance inst;
  for (size_t i = 0; i < num_tasks; ++i) {
    KeywordVector v(100);
    const size_t bits = 2 + rng.NextBounded(8);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(100)));
    }
    inst.tasks.emplace_back(i, std::move(v));
  }
  for (size_t q = 0; q < num_workers; ++q) {
    KeywordVector v(100);
    for (int b = 0; b < 6; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(100)));
    }
    const double alpha = rng.NextDouble();
    inst.workers.emplace_back(q, std::move(v),
                              MotivationWeights{alpha, 1.0 - alpha});
  }
  return inst;
}

// Reference: the positive-weight pairs under `dist`, scanned row-major
// and stable-sorted into the greedy's order (weight desc, u asc, v asc),
// the order BuildDiversityEdges returns.
template <typename Dist>
std::vector<WeightedEdge> ScalarEdges(size_t n, Dist dist) {
  std::vector<WeightedEdge> edges;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const float w = static_cast<float>(dist(i, j));
      if (w > 0.0f) {
        edges.push_back(WeightedEdge{static_cast<VertexId>(i),
                                     static_cast<VertexId>(j), w});
      }
    }
  }
  std::stable_sort(edges.begin(), edges.end(),
                   [](const WeightedEdge& a, const WeightedEdge& b) {
                     if (a.weight != b.weight) return a.weight > b.weight;
                     if (a.u != b.u) return a.u < b.u;
                     return a.v < b.v;
                   });
  return edges;
}

// Reference: rel[t * |W| + q] = TaskRelevance(t, q).
std::vector<double> ScalarRelevance(const Instance& inst, DistanceKind kind) {
  std::vector<double> rel;
  for (const Task& t : inst.tasks) {
    for (const Worker& w : inst.workers) {
      rel.push_back(TaskRelevance(kind, t, w));
    }
  }
  return rel;
}

void ExpectSameEdges(const std::vector<WeightedEdge>& got,
                     const std::vector<WeightedEdge>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t e = 0; e < want.size(); ++e) {
    ASSERT_EQ(got[e].u, want[e].u) << "edge " << e;
    ASSERT_EQ(got[e].v, want[e].v) << "edge " << e;
    ASSERT_EQ(got[e].weight, want[e].weight) << "edge " << e;
  }
}

TEST(BatchedKernelEquivalenceTest, DiversityEdgesBitIdentical) {
  ASSERT_TRUE(kForcePoolSize);
  for (const DistanceKind kind : kAllKinds) {
    for (const uint64_t seed : {111u, 112u}) {
      const Instance inst = MakeInstance(85, 3, seed);
      const TaskDistanceOracle oracle(&inst.tasks, kind);
      const std::vector<WeightedEdge> want =
          ScalarEdges(inst.tasks.size(), [&](size_t i, size_t j) {
            return PairwiseTaskDiversity(kind, inst.tasks[i], inst.tasks[j]);
          });
      for (const size_t cap : kThreadCaps) {
        SCOPED_TRACE(std::string(DistanceKindName(kind)) + " cap " +
                     std::to_string(cap));
        ExpectSameEdges(BuildDiversityEdges(oracle, cap), want);
      }
    }
  }
}

TEST(BatchedKernelEquivalenceTest, DiversityEdgesWithManyRowCounts) {
  // 1-60 keywords over a 128-word universe give about 50 distinct row
  // popcounts, so the weight-class table would be far larger than
  // BuildDiversityEdges builds; its float path must give the same list.
  Rng rng(131);
  std::vector<Task> tasks;
  for (size_t i = 0; i < 120; ++i) {
    KeywordVector v(128);
    const size_t bits = 1 + rng.NextBounded(60);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(128)));
    }
    tasks.emplace_back(i, std::move(v));
  }
  for (const DistanceKind kind :
       {DistanceKind::kHamming, DistanceKind::kCosineAngular}) {
    const TaskDistanceOracle oracle(&tasks, kind);
    const std::vector<WeightedEdge> want =
        ScalarEdges(tasks.size(), [&](size_t i, size_t j) {
          return PairwiseTaskDiversity(kind, tasks[i], tasks[j]);
        });
    for (const size_t cap : kThreadCaps) {
      SCOPED_TRACE(std::string(DistanceKindName(kind)) + " cap " +
                   std::to_string(cap));
      ExpectSameEdges(BuildDiversityEdges(oracle, cap), want);
    }
  }
}

TEST(BatchedKernelEquivalenceTest, DenseMatrixOracleBypassesBatchedPath) {
  // A dense-matrix oracle answers from the caller's matrix; the edge
  // builder must read that matrix, not silently rebuild from keyword
  // vectors. The matrix holds distances unrelated to the keywords, so
  // a rebuild would change the edges.
  const Instance inst = MakeInstance(60, 3, 121);
  const size_t n = inst.tasks.size();
  std::vector<double> matrix(n * n, 0.0);
  Rng rng(122);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const double d = rng.NextBounded(4) == 0 ? 0.0 : rng.NextDouble();
      matrix[i * n + j] = d;
      matrix[j * n + i] = d;
    }
  }
  auto dense = TaskDistanceOracle::FromDenseMatrix(
      &inst.tasks, DistanceKind::kJaccard, matrix);
  ASSERT_TRUE(dense.ok()) << dense.status();
  ASSERT_TRUE(dense->has_dense_matrix());
  const std::vector<WeightedEdge> want =
      ScalarEdges(n, [&](size_t i, size_t j) {
        return (*dense)(static_cast<TaskIndex>(i), static_cast<TaskIndex>(j));
      });
  for (const size_t cap : kThreadCaps) {
    SCOPED_TRACE("cap " + std::to_string(cap));
    ExpectSameEdges(BuildDiversityEdges(*dense, cap), want);
  }
}

TEST(BatchedKernelEquivalenceTest, RelevanceTableBitIdentical) {
  for (const DistanceKind kind : kAllKinds) {
    const Instance inst = MakeInstance(70, 5, 141);
    auto problem =
        HtaProblem::Create(&inst.tasks, &inst.workers, /*xmax=*/4, kind,
                           /*allow_non_metric=*/kind == DistanceKind::kDice);
    ASSERT_TRUE(problem.ok());
    const std::vector<double> want = ScalarRelevance(inst, kind);
    for (const size_t cap : kThreadCaps) {
      std::vector<double> batched;
      problem->FillRelevanceTable(&batched, cap);
      EXPECT_EQ(batched, want) << DistanceKindName(kind) << " cap " << cap;
    }
  }
}

// The solver's tabulated auxiliary-LSAP profits compute
// c_{k,q*Xmax} = beta_q * rel[k*|W|+q] * (Xmax-1) from the relevance
// table; that must equal QapView::C, which evaluates Relevance() per
// entry, bit-for-bit — on keyword-derived and on subset problems.
TEST(BatchedKernelEquivalenceTest, TabulatedProfitMatchesQapViewC) {
  for (const DistanceKind kind : kAllKinds) {
    const Instance inst = MakeInstance(70, 5, 171);
    const bool non_metric = kind == DistanceKind::kDice;
    auto created = HtaProblem::Create(&inst.tasks, &inst.workers,
                                      /*xmax=*/4, kind, non_metric);
    ASSERT_TRUE(created.ok());
    const CatalogCache cache(&inst.tasks, kind);
    std::vector<size_t> subset;
    for (size_t t = 1; t < inst.tasks.size(); t += 2) subset.push_back(t);
    auto from_subset = HtaProblem::CreateFromSubset(
        cache, subset, &inst.workers, /*xmax=*/4, non_metric);
    ASSERT_TRUE(from_subset.ok());
    for (const HtaProblem* problem : {&*created, &*from_subset}) {
      const QapView qap(problem);
      const size_t num_workers = problem->worker_count();
      const double norm = static_cast<double>(problem->xmax()) - 1.0;
      for (const size_t cap : kThreadCaps) {
        std::vector<double> rel;
        problem->FillRelevanceTable(&rel, cap);
        for (size_t k = 0; k < problem->task_count(); ++k) {
          for (size_t q = 0; q < num_workers; ++q) {
            const double tabulated = problem->workers()[q].weights().beta *
                                     rel[k * num_workers + q] * norm;
            ASSERT_EQ(tabulated, qap.C(k, q * problem->xmax()))
                << DistanceKindName(kind) << " cap " << cap << " task " << k
                << " worker " << q;
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace hta
