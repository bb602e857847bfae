// Reproduces the paper's running example end to end:
//   * Table I     — the rel(t, w) values for 2 workers x 8 tasks;
//   * Example 1   — matrices A and C of Fig. 1 (Xmax = 3,
//                   (alpha, beta) = (0.2, 0.8) and (0.6, 0.3));
//   * Example 2   — bundle extraction via Eq. 7 for a given permutation;
//   * Example 3   — the HTA-APP trace: M_B, the auxiliary profit
//                   f_{1,1} = 0.848, and a full solve;
//   * Eq. 3       — every objective the library reports for this
//                   instance (solver stats, the auditor's recompute,
//                   the naive and cached local-search deltas) scores
//                   Table I's relevance, not the placeholder keywords.
#include <cmath>
#include <cstdlib>
#include <memory>

#include <gtest/gtest.h>

#include "assign/auditor.h"
#include "assign/hta_solver.h"
#include "matching/max_weight_matching.h"
#include "qap/qap_view.h"
#include "reference/naive_deltas.h"

namespace hta {
namespace {

using reference::NaiveInsertDelta;

// Force the auditor on before anything latches AuditEnabled(), so the
// local search checks its incremental objective after every pass.
const bool kForceAudit = [] {
  setenv("HTA_AUDIT", "1", /*overwrite=*/1);
  return true;
}();

class WorkedExampleTest : public ::testing::Test {
 protected:
  WorkedExampleTest() {
    // Eight tasks; keyword vectors are placeholders because the example
    // specifies rel and d values directly (Table I gives rel; Example 3
    // gives the d values that matter).
    for (uint64_t i = 0; i < 8; ++i) {
      tasks_.emplace_back(i, KeywordVector(8, {static_cast<KeywordId>(i)}));
    }
    workers_.emplace_back(1, KeywordVector(8, {0}),
                          MotivationWeights{0.2, 0.8});
    workers_.emplace_back(2, KeywordVector(8, {1}),
                          MotivationWeights{0.6, 0.3});

    // Table I, row-major |T| x |W|.
    relevance_ = {
        // w1    w2
        0.28, 0.30,  // t1
        0.25, 0.00,  // t2
        0.20, 0.20,  // t3
        0.43, 0.25,  // t4
        0.67, 0.25,  // t5
        0.40, 0.00,  // t6
        0.00, 0.00,  // t7
        0.40, 0.40,  // t8
    };

    // Pairwise distances: Example 3 pins d(t4,t8) = 1, d(t1,t6) = 1,
    // d(t3,t2) = 0.86, d(t7,t5) = 0.8; all other pairs sit at 0.7,
    // which keeps the matrix a metric (max 1 <= 0.7 + 0.7) and makes
    // the paper's M_B the unique greedy matching.
    distances_.assign(64, 0.7);
    for (int i = 0; i < 8; ++i) distances_[i * 8 + i] = 0.0;
    auto set_d = [&](int a, int b, double v) {
      distances_[a * 8 + b] = v;
      distances_[b * 8 + a] = v;
    };
    set_d(3, 7, 1.0);   // (t4, t8)
    set_d(0, 5, 1.0);   // (t1, t6)
    set_d(2, 1, 0.86);  // (t3, t2)
    set_d(6, 4, 0.8);   // (t7, t5)

    auto problem = HtaProblem::CreateWithMatrices(&tasks_, &workers_, 3,
                                                  distances_, relevance_);
    HTA_CHECK(problem.ok()) << problem.status();
    problem_ = std::make_unique<HtaProblem>(std::move(*problem));
  }

  // Eq. 3 summed over workers, straight from the fixture's matrices.
  // The oracle stores distances as floats, so agreement with the
  // library is to float precision.
  double TableOneMotivation(const Assignment& assignment) const {
    double total = 0.0;
    for (size_t q = 0; q < assignment.bundles.size(); ++q) {
      const TaskBundle& bundle = assignment.bundles[q];
      if (bundle.empty()) continue;
      double td = 0.0;
      double tr = 0.0;
      for (size_t k = 0; k < bundle.size(); ++k) {
        tr += relevance_[bundle[k] * 2 + q];
        for (size_t l = k + 1; l < bundle.size(); ++l) {
          td += distances_[bundle[k] * 8 + bundle[l]];
        }
      }
      const MotivationWeights& w = workers_[q].weights();
      total += 2.0 * w.alpha * td +
               w.beta * (static_cast<double>(bundle.size()) - 1.0) * tr;
    }
    return total;
  }

  std::vector<Task> tasks_;
  std::vector<Worker> workers_;
  std::vector<double> relevance_;
  std::vector<double> distances_;
  std::unique_ptr<HtaProblem> problem_;
};

TEST_F(WorkedExampleTest, TableOneRelevanceIsServed) {
  EXPECT_DOUBLE_EQ(problem_->Relevance(0, 0), 0.28);
  EXPECT_DOUBLE_EQ(problem_->Relevance(4, 0), 0.67);
  EXPECT_DOUBLE_EQ(problem_->Relevance(6, 0), 0.0);
  EXPECT_DOUBLE_EQ(problem_->Relevance(0, 1), 0.30);
  EXPECT_DOUBLE_EQ(problem_->Relevance(7, 1), 0.40);
}

TEST_F(WorkedExampleTest, MatrixAMatchesFigureOne) {
  const QapView view(problem_.get());
  EXPECT_EQ(view.n(), 8u);
  // First 3x3 block: worker 1's clique with alpha = 0.2 off-diagonal.
  for (size_t k = 0; k < 3; ++k) {
    for (size_t l = 0; l < 3; ++l) {
      EXPECT_DOUBLE_EQ(view.A(k, l), k == l ? 0.0 : 0.2);
    }
  }
  // Second block: worker 2, alpha = 0.6.
  for (size_t k = 3; k < 6; ++k) {
    for (size_t l = 3; l < 6; ++l) {
      EXPECT_DOUBLE_EQ(view.A(k, l), k == l ? 0.0 : 0.6);
    }
  }
  // Isolated vertices 6, 7 and cross-clique entries: zero.
  EXPECT_DOUBLE_EQ(view.A(0, 3), 0.0);
  EXPECT_DOUBLE_EQ(view.A(6, 6), 0.0);
  EXPECT_DOUBLE_EQ(view.A(1, 7), 0.0);
}

TEST_F(WorkedExampleTest, MatrixCMatchesFigureOne) {
  const QapView view(problem_.get());
  // Fig. 1 shows c_{1,1} = 2 * 0.8 * 0.28 (worker 1 column, task t1).
  EXPECT_NEAR(view.C(0, 0), 2.0 * 0.8 * 0.28, 1e-12);
  EXPECT_NEAR(view.C(1, 0), 2.0 * 0.8 * 0.25, 1e-12);
  EXPECT_NEAR(view.C(5, 2), 2.0 * 0.8 * 0.4, 1e-12);
  EXPECT_NEAR(view.C(6, 1), 2.0 * 0.8 * 0.0, 1e-12);
  // Worker 2 columns (3-5): 2 * 0.3 * rel(w2, t).
  EXPECT_NEAR(view.C(0, 3), 2.0 * 0.3 * 0.3, 1e-12);
  EXPECT_NEAR(view.C(7, 5), 2.0 * 0.3 * 0.4, 1e-12);
  EXPECT_NEAR(view.C(1, 4), 0.0, 1e-12);
  // Columns 6, 7 are isolated: all zero.
  for (size_t k = 0; k < 8; ++k) {
    EXPECT_DOUBLE_EQ(view.C(k, 6), 0.0);
    EXPECT_DOUBLE_EQ(view.C(k, 7), 0.0);
  }
}

TEST_F(WorkedExampleTest, ExampleTwoExtractionViaEquationSeven) {
  // Example 2: pi(1) = 4, pi(4) = 1, all others fixed points
  // (1-indexed) → 0-indexed perm below. Worker 1 receives
  // {t4, t2, t3}, worker 2 {t1, t5, t6}; t7, t8 unassigned.
  const QapView view(problem_.get());
  const std::vector<int32_t> perm{3, 1, 2, 0, 4, 5, 6, 7};
  const Assignment a = ExtractAssignment(view, perm);
  ASSERT_EQ(a.bundles.size(), 2u);
  EXPECT_EQ(a.bundles[0], (TaskBundle{1, 2, 3}));  // t2, t3, t4.
  EXPECT_EQ(a.bundles[1], (TaskBundle{0, 4, 5}));  // t1, t5, t6.
}

TEST_F(WorkedExampleTest, ExampleThreeGreedyMatchingMB) {
  const TaskDistanceOracle& oracle = problem_->oracle();
  const GraphMatching mb =
      GreedyMaxWeightMatching(oracle.task_count(), BuildDiversityEdges(oracle));
  ASSERT_EQ(mb.edges.size(), 4u);
  // Sorted by weight desc with index tie-breaks: (t1,t6), (t4,t8),
  // (t2,t3), (t5,t7) — exactly the paper's M_B as unordered pairs.
  EXPECT_EQ(mb.edges[0], std::make_pair(VertexId{0}, VertexId{5}));
  EXPECT_EQ(mb.edges[1], std::make_pair(VertexId{3}, VertexId{7}));
  EXPECT_EQ(mb.edges[2], std::make_pair(VertexId{1}, VertexId{2}));
  EXPECT_EQ(mb.edges[3], std::make_pair(VertexId{4}, VertexId{6}));
  EXPECT_NEAR(mb.total_weight, 1.0 + 1.0 + 0.86 + 0.8, 1e-6);
}

TEST_F(WorkedExampleTest, ExampleThreeAuxiliaryProfit) {
  // f_{1,1} = bM(t1) * degA_1 + c_{1,1} = 1 * (0.2 * 2) + 2*0.8*0.28
  //         = 0.4 + 0.448 = 0.848.
  const QapView view(problem_.get());
  const TaskDistanceOracle& oracle = problem_->oracle();
  const GraphMatching mb =
      GreedyMaxWeightMatching(oracle.task_count(), BuildDiversityEdges(oracle));
  std::vector<double> bm(8, 0.0);
  for (const auto& [u, v] : mb.edges) {
    const double w = oracle(u, v);
    bm[u] = w;
    bm[v] = w;
  }
  EXPECT_NEAR(bm[0], 1.0, 1e-6);
  EXPECT_NEAR(view.DegA(0), 0.4, 1e-12);
  const double f_1_1 = bm[0] * view.DegA(0) + view.C(0, 0);
  EXPECT_NEAR(f_1_1, 0.848, 1e-6);
}

TEST_F(WorkedExampleTest, FullSolveIsFeasibleAndNontrivial) {
  for (uint64_t seed : {1ull, 7ull, 42ull}) {
    auto app = SolveHtaApp(*problem_, seed);
    ASSERT_TRUE(app.ok());
    EXPECT_TRUE(ValidateAssignment(*problem_, app->assignment).ok());
    // Both workers receive full bundles (8 tasks >= 6 slots).
    EXPECT_EQ(app->assignment.bundles[0].size(), 3u);
    EXPECT_EQ(app->assignment.bundles[1].size(), 3u);
    EXPECT_GT(app->stats.motivation, 0.0);
  }
}

// The reported motivation is Eq. 3 of the extracted assignment scored
// with Table I, and the certificate is that motivation over the
// Theorem 4 bound.
TEST_F(WorkedExampleTest, ReportedMotivationIsEquationThreeUnderTableOne) {
  for (const LsapMethod lsap : {LsapMethod::kExactJv, LsapMethod::kGreedy}) {
    HtaSolverOptions options;
    options.lsap = lsap;
    options.swap = SwapMode::kNone;
    auto solved = SolveHta(*problem_, options);
    ASSERT_TRUE(solved.ok()) << solved.status();
    const HtaSolveStats& stats = solved->stats;
    EXPECT_NEAR(stats.motivation, TableOneMotivation(solved->assignment),
                1e-6)
        << SolverName(options);
    ASSERT_GT(stats.optimum_upper_bound, 0.0) << SolverName(options);
    EXPECT_EQ(stats.certified_ratio,
              stats.motivation / stats.optimum_upper_bound)
        << SolverName(options);
  }
}

// With the auditor on, every local-search pass checks initial + Σ
// applied deltas (Table I via the cached tables) against a from-scratch
// Eq. 3 recompute, which must read Table I too.
TEST_F(WorkedExampleTest, ImproveAssignmentFromPartialSeedPassesAudit) {
  ASSERT_TRUE(kForceAudit);
  ASSERT_TRUE(AuditEnabled());
  Assignment seed;
  seed.bundles = {{6, 1}, {2}};  // t7, t2 | t3: both bundles have room.
  const double initial = TotalMotivation(*problem_, seed);
  EXPECT_NEAR(initial, TableOneMotivation(seed), 1e-6);
  auto improved = ImproveAssignment(*problem_, seed, LocalSearchOptions{});
  ASSERT_TRUE(improved.ok()) << improved.status();
  EXPECT_EQ(improved->initial_motivation, initial);
  EXPECT_GT(improved->motivation, initial);
  EXPECT_NEAR(improved->motivation,
              TableOneMotivation(improved->assignment), 1e-6);
}

TEST_F(WorkedExampleTest, NaiveInsertDeltaMatchesCachedInsertDelta) {
  Assignment assignment;
  assignment.bundles = {{0, 4}, {7}};
  const BundleStatsCache cache(*problem_, &assignment, /*max_threads=*/1);
  for (WorkerIndex q = 0; q < 2; ++q) {
    for (TaskIndex t : {1, 2, 3, 5, 6}) {
      EXPECT_NEAR(NaiveInsertDelta(*problem_, assignment.bundles[q], t, q),
                  cache.InsertDelta(q, t), 1e-12)
          << "worker " << q << " task " << t;
    }
  }
}

}  // namespace
}  // namespace hta
