// Property sweep across the whole solver configuration space:
// every (metric x LSAP method x swap mode x instance shape) combination
// must produce a feasible, deterministic, certificate-consistent
// assignment. This is the regression net that keeps the solver matrix
// honest as variants are added.
#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "assign/hta_solver.h"
#include "matching/lsap.h"
#include "qap/qap_view.h"
#include "reference/auxiliary_profit.h"
#include "reference/lsap_jv.h"
#include "util/rng.h"

namespace hta {
namespace {

/// The LSAP axis of the sweep. kJv and kGreedy run the two
/// LsapMethods; kRect runs the exact method again and also pins its
/// rectangular (task, worker) LSAP optimum against the square JV
/// reference on the same auxiliary profit.
enum class LsapArm { kJv, kGreedy, kRect };

LsapMethod ArmMethod(LsapArm arm) {
  return arm == LsapArm::kGreedy ? LsapMethod::kGreedy : LsapMethod::kExactJv;
}

struct SweepCase {
  DistanceKind metric;
  LsapArm lsap;
  SwapMode swap;
  size_t tasks;
  size_t workers;
  size_t xmax;
  uint64_t seed;
};

std::string CaseName(const ::testing::TestParamInfo<SweepCase>& info) {
  const SweepCase& c = info.param;
  std::string lsap;
  switch (c.lsap) {
    case LsapArm::kJv:
      lsap = "jv";
      break;
    case LsapArm::kGreedy:
      lsap = "greedy";
      break;
    case LsapArm::kRect:
      lsap = "rect";
      break;
  }
  std::string swap;
  switch (c.swap) {
    case SwapMode::kRandom:
      swap = "rand";
      break;
    case SwapMode::kBestOfTwo:
      swap = "best2";
      break;
    case SwapMode::kNone:
      swap = "none";
      break;
  }
  std::string name = DistanceKindName(c.metric) + "_" + lsap + "_" + swap +
                     "_t" + std::to_string(c.tasks) + "w" +
                     std::to_string(c.workers) + "x" + std::to_string(c.xmax);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class SolverSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  void BuildFixture(const SweepCase& c) {
    Rng rng(c.seed);
    for (size_t i = 0; i < c.tasks; ++i) {
      KeywordVector v(48);
      const size_t bits = 2 + rng.NextBounded(5);
      for (size_t b = 0; b < bits; ++b) {
        v.Set(static_cast<KeywordId>(rng.NextBounded(48)));
      }
      tasks_.emplace_back(i, std::move(v));
    }
    for (size_t q = 0; q < c.workers; ++q) {
      KeywordVector v(48);
      for (int b = 0; b < 4; ++b) {
        v.Set(static_cast<KeywordId>(rng.NextBounded(48)));
      }
      const double alpha = rng.NextDouble();
      workers_.emplace_back(q, std::move(v),
                            MotivationWeights{alpha, 1.0 - alpha});
    }
  }

  std::vector<Task> tasks_;
  std::vector<Worker> workers_;
};

TEST_P(SolverSweep, FeasibleDeterministicAndCertified) {
  const SweepCase c = GetParam();
  BuildFixture(c);
  auto problem = HtaProblem::Create(&tasks_, &workers_, c.xmax, c.metric,
                                    /*allow_non_metric=*/true);
  ASSERT_TRUE(problem.ok()) << problem.status();

  HtaSolverOptions options;
  options.lsap = ArmMethod(c.lsap);
  options.swap = c.swap;
  options.seed = c.seed * 31 + 1;

  auto first = SolveHta(*problem, options);
  ASSERT_TRUE(first.ok()) << first.status();

  // Feasibility (C1 and C2).
  ASSERT_TRUE(ValidateAssignment(*problem, first->assignment).ok());

  // Determinism.
  auto second = SolveHta(*problem, options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->assignment.bundles, second->assignment.bundles);
  EXPECT_DOUBLE_EQ(first->stats.qap_objective, second->stats.qap_objective);

  // Certificate consistency.
  EXPECT_GE(first->stats.optimum_upper_bound + 1e-9,
            first->stats.qap_objective);
  EXPECT_GE(first->stats.certified_ratio, 0.0);
  EXPECT_LE(first->stats.certified_ratio, 1.0 + 1e-9);
  if (c.lsap == LsapArm::kRect) {
    const size_t n = QapView(&*problem).n();
    const std::vector<double> profit =
        reference::AuxiliaryProfitMatrix(*problem);
    const double jv =
        reference::SolveLsapJv(n, DenseProfit(n, &profit)).profit;
    EXPECT_NEAR(first->stats.optimum_upper_bound, 2.0 * jv,
                1e-9 * std::max(1.0, 2.0 * jv));
  }

  // Objective bookkeeping: motivation <= QAP value of the permutation
  // (equal when every bundle is full and no padding exists).
  EXPECT_LE(first->stats.motivation, first->stats.qap_objective + 1e-9);
  EXPECT_GE(first->stats.motivation, 0.0);

  // Stats sanity.
  EXPECT_GE(first->stats.matching_seconds, 0.0);
  EXPECT_GE(first->stats.lsap_seconds, 0.0);
  if (c.tasks >= 2 * c.workers * c.xmax) {
    // Plenty of tasks: every bundle is full.
    for (const TaskBundle& b : first->assignment.bundles) {
      EXPECT_EQ(b.size(), c.xmax);
    }
  }
}

std::vector<SweepCase> AllCases() {
  std::vector<SweepCase> cases;
  uint64_t seed = 1;
  for (DistanceKind metric :
       {DistanceKind::kJaccard, DistanceKind::kHamming,
        DistanceKind::kCosineAngular, DistanceKind::kDice}) {
    for (LsapArm lsap : {LsapArm::kJv, LsapArm::kGreedy, LsapArm::kRect}) {
      for (SwapMode swap :
           {SwapMode::kRandom, SwapMode::kBestOfTwo, SwapMode::kNone}) {
        // A comfortably-sized instance and a padded (scarce-task) one.
        cases.push_back(SweepCase{metric, lsap, swap, 40, 3, 4, seed++});
        cases.push_back(SweepCase{metric, lsap, swap, 7, 3, 4, seed++});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllConfigurations, SolverSweep,
                         ::testing::ValuesIn(AllCases()), CaseName);

}  // namespace
}  // namespace hta
