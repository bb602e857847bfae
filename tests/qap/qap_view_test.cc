#include "qap/qap_view.h"

#include <numeric>

#include <gtest/gtest.h>

#include "assign/assignment.h"
#include "assign/hta_solver.h"
#include "reference/dense_qap.h"
#include "util/rng.h"

namespace hta {
namespace {

struct Fixture {
  std::vector<Task> tasks;
  std::vector<Worker> workers;
};

Fixture RandomFixture(size_t num_tasks, size_t num_workers, uint64_t seed) {
  Fixture f;
  Rng rng(seed);
  for (size_t i = 0; i < num_tasks; ++i) {
    KeywordVector v(64);
    const size_t bits = 2 + rng.NextBounded(5);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(64)));
    }
    f.tasks.emplace_back(i, std::move(v));
  }
  for (size_t q = 0; q < num_workers; ++q) {
    KeywordVector v(64);
    for (int b = 0; b < 4; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(64)));
    }
    const double alpha = rng.NextDouble();
    f.workers.emplace_back(q, std::move(v),
                           MotivationWeights{alpha, 1.0 - alpha});
  }
  return f;
}

TEST(QapViewTest, DimensionIsMaxOfTasksAndSlots) {
  const Fixture f = RandomFixture(10, 2, 1);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 3);
  ASSERT_TRUE(problem.ok());
  const QapView view(&*problem);
  EXPECT_EQ(view.n(), 10u);  // 10 tasks > 2*3 slots.

  auto padded = HtaProblem::Create(&f.tasks, &f.workers, 8);
  ASSERT_TRUE(padded.ok());
  const QapView padded_view(&*padded);
  EXPECT_EQ(padded_view.n(), 16u);  // 2*8 slots > 10 tasks.
  EXPECT_TRUE(padded_view.IsPaddingTask(10));
  EXPECT_FALSE(padded_view.IsPaddingTask(9));
}

TEST(QapViewTest, WorkerOfVertexMapsCliques) {
  const Fixture f = RandomFixture(10, 2, 2);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 3);
  ASSERT_TRUE(problem.ok());
  const QapView view(&*problem);
  for (size_t l = 0; l < 3; ++l) EXPECT_EQ(view.WorkerOfVertex(l), 0);
  for (size_t l = 3; l < 6; ++l) EXPECT_EQ(view.WorkerOfVertex(l), 1);
  for (size_t l = 6; l < 10; ++l) EXPECT_EQ(view.WorkerOfVertex(l), -1);
}

TEST(QapViewTest, MatrixAMatchesEquationFour) {
  const Fixture f = RandomFixture(10, 2, 3);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 3);
  ASSERT_TRUE(problem.ok());
  const QapView view(&*problem);
  for (size_t k = 0; k < view.n(); ++k) {
    for (size_t l = 0; l < view.n(); ++l) {
      const double a = view.A(k, l);
      if (k == l) {
        EXPECT_EQ(a, 0.0);
        continue;
      }
      const int32_t qk = view.WorkerOfVertex(k);
      const int32_t ql = view.WorkerOfVertex(l);
      if (qk >= 0 && qk == ql) {
        EXPECT_DOUBLE_EQ(
            a, f.workers[static_cast<size_t>(ql)].weights().alpha);
      } else {
        EXPECT_EQ(a, 0.0);
      }
    }
  }
}

TEST(QapViewTest, MatrixCNonzeroOnlyOnWorkerColumns) {
  const Fixture f = RandomFixture(10, 2, 4);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 3);
  ASSERT_TRUE(problem.ok());
  const QapView view(&*problem);
  for (size_t k = 0; k < 10; ++k) {
    for (size_t l = 0; l < 10; ++l) {
      const double c = view.C(k, l);
      const int32_t q = view.WorkerOfVertex(l);
      if (q < 0) {
        EXPECT_EQ(c, 0.0);
      } else {
        const Worker& w = f.workers[static_cast<size_t>(q)];
        EXPECT_NEAR(c,
                    w.weights().beta *
                        problem->Relevance(static_cast<TaskIndex>(k),
                                           static_cast<WorkerIndex>(q)) *
                        2.0,
                    1e-12);
      }
    }
  }
}

TEST(QapViewTest, DegAMatchesRowSums) {
  const Fixture f = RandomFixture(12, 3, 5);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 3);
  ASSERT_TRUE(problem.ok());
  const QapView view(&*problem);
  for (size_t l = 0; l < view.n(); ++l) {
    double row_sum = 0.0;
    for (size_t k = 0; k < view.n(); ++k) row_sum += view.A(k, l);
    EXPECT_NEAR(view.DegA(l), row_sum, 1e-12);
  }
}

// Equation 8: the MAXQAP objective of a permutation equals the HTA
// motivation (Eq. 3) of the extracted assignment — exactly, when every
// bundle is full (|T| >= |W| * Xmax ensures extracted bundles have
// exactly Xmax members only if the permutation fills cliques; random
// permutations do fill every clique vertex with some task when
// |T| == n).
TEST(QapViewTest, EquationEightIdentityOnFullInstances) {
  Rng rng(8);
  for (int trial = 0; trial < 20; ++trial) {
    // |T| = n >= |W| * Xmax, no padding.
    const size_t workers = 1 + rng.NextBounded(3);
    const size_t xmax = 2 + rng.NextBounded(3);
    const size_t tasks = workers * xmax + rng.NextBounded(5);
    const Fixture f = RandomFixture(tasks, workers, 200 + trial);
    auto problem = HtaProblem::Create(&f.tasks, &f.workers, xmax);
    ASSERT_TRUE(problem.ok());
    const QapView view(&*problem);
    ASSERT_EQ(view.n(), tasks);

    std::vector<int32_t> perm(tasks);
    std::iota(perm.begin(), perm.end(), 0);
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
    }
    // Every clique vertex is hit by exactly one task, so every bundle
    // has exactly Xmax members and Eq. 8 holds with equality.
    const Assignment assignment = ExtractAssignment(view, perm);
    for (const TaskBundle& b : assignment.bundles) {
      ASSERT_EQ(b.size(), xmax);
    }
    const reference::DenseQapMatrices dense =
        reference::DenseQapMatrices::FromView(view);
    EXPECT_NEAR(dense.Objective(perm), TotalMotivation(*problem, assignment),
                1e-9)
        << "Eq. 8 identity violated at trial " << trial;
  }
}

// With padding (|T| < |W| * Xmax) bundles can end up below Xmax, while
// Eq. 8 keeps the (Xmax - 1) relevance normalizer of Eq. 6; since
// d >= 0 and rel >= 0, Eq. 8 of any permutation is at least Eq. 3 of
// its extracted bundles. This is why a bound on the QAP optimum also
// bounds the HTA optimum.
TEST(QapViewTest, QapObjectiveUpperBoundsMotivationWithPadding) {
  Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    const size_t workers = 1 + rng.NextBounded(3);
    const size_t xmax = 2 + rng.NextBounded(4);
    const size_t tasks = 1 + rng.NextBounded(workers * xmax - 1);
    const Fixture f = RandomFixture(tasks, workers, 300 + trial);
    auto problem = HtaProblem::Create(&f.tasks, &f.workers, xmax);
    ASSERT_TRUE(problem.ok());
    const QapView view(&*problem);
    ASSERT_EQ(view.n(), workers * xmax);
    const reference::DenseQapMatrices dense =
        reference::DenseQapMatrices::FromView(view);

    std::vector<int32_t> perm(view.n());
    std::iota(perm.begin(), perm.end(), 0);
    for (int p = 0; p < 5; ++p) {
      for (size_t i = perm.size(); i > 1; --i) {
        std::swap(perm[i - 1], perm[rng.NextBounded(i)]);
      }
      const Assignment assignment = ExtractAssignment(view, perm);
      EXPECT_GE(dense.Objective(perm) + 1e-9,
                TotalMotivation(*problem, assignment))
          << "trial " << trial << " |T|=" << tasks << " |W|=" << workers
          << " xmax=" << xmax;
    }
  }
}

TEST(QapViewTest, PaddingTasksContributeNothing) {
  const Fixture f = RandomFixture(4, 2, 9);
  auto problem = HtaProblem::Create(&f.tasks, &f.workers, 4);  // 8 slots.
  ASSERT_TRUE(problem.ok());
  const QapView view(&*problem);
  EXPECT_EQ(view.n(), 8u);
  for (size_t k = 4; k < 8; ++k) {
    for (size_t l = 0; l < 8; ++l) {
      EXPECT_EQ(view.B(k, l), 0.0);
      EXPECT_EQ(view.C(k, l), 0.0);
    }
  }
}

}  // namespace
}  // namespace hta
