#include "engine/motivation_estimator.h"

#include <algorithm>
#include <string>

#include <gtest/gtest.h>

#include "core/distance.h"
#include "engine/assignment_service.h"
#include "engine/event_log.h"
#include "util/rng.h"

namespace hta {
namespace {

// Tasks 0 and 1 are near-duplicates; task 2 is disjoint from both;
// task 3 partially overlaps 0/1.
std::vector<Task> SmallCatalog() {
  std::vector<Task> catalog;
  catalog.emplace_back(0, KeywordVector(32, {1, 2, 3}));
  catalog.emplace_back(1, KeywordVector(32, {1, 2, 4}));
  catalog.emplace_back(2, KeywordVector(32, {10, 11, 12}));
  catalog.emplace_back(3, KeywordVector(32, {1, 20, 21}));
  return catalog;
}

class EstimatorTest : public ::testing::Test {
 protected:
  KeywordVector Likes(std::initializer_list<KeywordId> ids) {
    return KeywordVector(32, ids);
  }

  std::vector<Task> catalog_ = SmallCatalog();
  CatalogCache cache_{&catalog_, DistanceKind::kJaccard};
};

TEST_F(EstimatorTest, PriorReturnedWithoutObservations) {
  MotivationEstimator est(&cache_, MotivationWeights{0.3, 0.7});
  const MotivationWeights w = est.Estimate(7);
  EXPECT_DOUBLE_EQ(w.alpha, 0.3);
  EXPECT_DOUBLE_EQ(w.beta, 0.7);
}

TEST_F(EstimatorTest, FirstCompletionHasNoDiversitySignal) {
  MotivationEstimator est(&cache_);
  const KeywordVector w = Likes({1, 2, 3});
  est.BeginBundle(7, {0, 1, 2}, w);
  est.ObserveCompletion(7, 0);
  // No completed prefix → max diversity gain 0 → skipped.
  EXPECT_EQ(est.DiversityObservationCount(7), 0u);
  // Relevance signal exists (rel(t0) = 1 is the max).
  EXPECT_EQ(est.RelevanceObservationCount(7), 1u);
}

TEST_F(EstimatorTest, DiversityChooserDriftsTowardHighAlpha) {
  MotivationEstimator est(&cache_);
  const KeywordVector w = Likes({1, 2, 3});
  est.BeginBundle(7, {0, 1, 2, 3}, w);
  // Completes t0, then the most-different remaining task each time.
  est.ObserveCompletion(7, 0);
  est.ObserveCompletion(7, 2);  // t2 is maximally diverse from t0.
  est.ObserveCompletion(7, 3);
  const MotivationWeights weights = est.Estimate(7);
  EXPECT_GT(weights.alpha, weights.beta);
  EXPECT_NEAR(weights.alpha + weights.beta, 1.0, 1e-12);
}

TEST_F(EstimatorTest, RelevanceChooserDriftsTowardHighBeta) {
  MotivationEstimator est(&cache_);
  const KeywordVector w = Likes({1, 2, 3});
  est.BeginBundle(7, {0, 1, 2, 3}, w);
  // Completes in relevance order: t0 (rel 1), then t1 (best remaining
  // relevance but low marginal diversity), then t3.
  est.ObserveCompletion(7, 0);
  est.ObserveCompletion(7, 1);
  est.ObserveCompletion(7, 3);
  const MotivationWeights weights = est.Estimate(7);
  EXPECT_GT(weights.beta, weights.alpha);
}

TEST_F(EstimatorTest, UnknownTasksIgnored) {
  MotivationEstimator est(&cache_);
  const KeywordVector w = Likes({1});
  est.BeginBundle(7, {0, 1}, w);
  est.ObserveCompletion(7, 2);  // Not in the bundle.
  EXPECT_EQ(est.DiversityObservationCount(7), 0u);
  EXPECT_EQ(est.RelevanceObservationCount(7), 0u);
}

TEST_F(EstimatorTest, DuplicateCompletionIgnored) {
  MotivationEstimator est(&cache_);
  const KeywordVector w = Likes({1, 2, 3});
  est.BeginBundle(7, {0, 1}, w);
  est.ObserveCompletion(7, 0);
  est.ObserveCompletion(7, 0);
  EXPECT_EQ(est.RelevanceObservationCount(7), 1u);
}

TEST_F(EstimatorTest, ObservationsBeforeBeginBundleIgnored) {
  MotivationEstimator est(&cache_);
  est.ObserveCompletion(7, 0);
  EXPECT_EQ(est.RelevanceObservationCount(7), 0u);
}

TEST_F(EstimatorTest, GainsAccumulateAcrossBundles) {
  MotivationEstimator est(&cache_);
  const KeywordVector w = Likes({1, 2, 3});
  est.BeginBundle(7, {0, 1}, w);
  est.ObserveCompletion(7, 0);
  est.BeginBundle(7, {2, 3}, w);
  est.ObserveCompletion(7, 2);
  EXPECT_EQ(est.RelevanceObservationCount(7), 2u);
}

TEST_F(EstimatorTest, WorkersTrackedIndependently) {
  MotivationEstimator est(&cache_);
  const KeywordVector a = Likes({1, 2, 3});
  est.BeginBundle(1, {0, 1}, a);
  est.ObserveCompletion(1, 0);
  EXPECT_EQ(est.RelevanceObservationCount(1), 1u);
  EXPECT_EQ(est.RelevanceObservationCount(2), 0u);
}

TEST_F(EstimatorTest, NormalizedGainInZeroOne) {
  // The chosen task's marginal gain can never exceed the max over
  // remaining tasks, so alpha_raw, beta_raw lie in [0, 1] and the
  // normalized estimate is a valid weight pair.
  MotivationEstimator est(&cache_);
  const KeywordVector w = Likes({10, 11});
  est.BeginBundle(7, {0, 1, 2, 3}, w);
  est.ObserveCompletion(7, 1);
  est.ObserveCompletion(7, 3);
  est.ObserveCompletion(7, 0);
  est.ObserveCompletion(7, 2);
  const MotivationWeights weights = est.Estimate(7);
  EXPECT_GE(weights.alpha, 0.0);
  EXPECT_LE(weights.alpha, 1.0);
  EXPECT_NEAR(weights.alpha + weights.beta, 1.0, 1e-12);
}

constexpr size_t kUniverse = 48;

std::vector<Task> RandomCatalog(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    KeywordVector v(kUniverse);
    const size_t bits = 1 + rng.NextBounded(5);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(kUniverse)));
    }
    tasks.emplace_back(1000 + i, v);
  }
  return tasks;
}

KeywordVector RandomInterests(Rng* rng) {
  KeywordVector v(kUniverse);
  for (int b = 0; b < 4; ++b) {
    v.Set(static_cast<KeywordId>(rng->NextBounded(kUniverse)));
  }
  return v;
}

/// Section III's normalized gains recomputed from the scalar distance
/// definitions, one completion at a time: the reference the estimator
/// must equal bit-for-bit.
class ScalarGains {
 public:
  ScalarGains(const std::vector<Task>* catalog, DistanceKind kind,
              Worker worker)
      : catalog_(catalog), kind_(kind), worker_(std::move(worker)) {}

  void Begin(std::vector<size_t> bundle) {
    bundle_ = std::move(bundle);
    completed_.clear();
  }

  void Complete(size_t task) {
    const auto contains = [](const std::vector<size_t>& v, size_t t) {
      return std::find(v.begin(), v.end(), t) != v.end();
    };
    if (!contains(bundle_, task) || contains(completed_, task)) return;
    const auto div = [&](size_t a, size_t b) {
      return PairwiseTaskDiversity(kind_, (*catalog_)[a], (*catalog_)[b]);
    };
    const auto rel = [&](size_t t) {
      return TaskRelevance(kind_, (*catalog_)[t], worker_);
    };
    double gain = 0.0;
    for (size_t prev : completed_) gain += div(task, prev);
    double max_gain = 0.0;
    double max_rel = 0.0;
    for (size_t candidate : bundle_) {
      if (contains(completed_, candidate)) continue;
      double g = 0.0;
      for (size_t prev : completed_) g += div(candidate, prev);
      max_gain = std::max(max_gain, g);
      max_rel = std::max(max_rel, rel(candidate));
    }
    if (max_gain > 0.0) {
      diversity_sum_ += gain / max_gain;
      ++diversity_count_;
    }
    if (max_rel > 0.0) {
      relevance_sum_ += rel(task) / max_rel;
      ++relevance_count_;
    }
    completed_.push_back(task);
  }

  MotivationWeights Estimate(MotivationWeights prior) const {
    if (diversity_count_ == 0 && relevance_count_ == 0) return prior;
    return MotivationWeights::Normalized(
        diversity_count_ > 0
            ? diversity_sum_ / static_cast<double>(diversity_count_)
            : prior.alpha,
        relevance_count_ > 0
            ? relevance_sum_ / static_cast<double>(relevance_count_)
            : prior.beta);
  }

  size_t diversity_count() const { return diversity_count_; }
  size_t relevance_count() const { return relevance_count_; }

 private:
  const std::vector<Task>* catalog_;
  DistanceKind kind_;
  Worker worker_;
  std::vector<size_t> bundle_;
  std::vector<size_t> completed_;
  double diversity_sum_ = 0.0;
  size_t diversity_count_ = 0;
  double relevance_sum_ = 0.0;
  size_t relevance_count_ = 0;
};

class EstimatorScalarEquivalenceTest
    : public ::testing::TestWithParam<DistanceKind> {};

// Displayed bundles as the service builds them (an optimized part plus
// random extras), completed in random order with a duplicate
// notification and an off-bundle completion mixed in: after every
// event the estimate equals the scalar recomputation exactly.
TEST_P(EstimatorScalarEquivalenceTest, MatchesScalarGainsExactly) {
  const DistanceKind kind = GetParam();
  const std::vector<Task> catalog = RandomCatalog(90, /*seed=*/51);
  const CatalogCache cache(&catalog, kind);
  Rng rng(52);
  const KeywordVector interests = RandomInterests(&rng);
  const MotivationWeights prior{0.4, 0.6};
  MotivationEstimator est(&cache, prior);
  ScalarGains want(&catalog, kind, Worker(3, interests));

  const auto expect_same = [&](const std::string& where) {
    const MotivationWeights got = est.Estimate(3);
    const MotivationWeights ref = want.Estimate(prior);
    EXPECT_EQ(got.alpha, ref.alpha) << where;
    EXPECT_EQ(got.beta, ref.beta) << where;
    EXPECT_EQ(est.DiversityObservationCount(3), want.diversity_count())
        << where;
    EXPECT_EQ(est.RelevanceObservationCount(3), want.relevance_count())
        << where;
  };

  for (size_t round = 0; round < 3; ++round) {
    // Eight optimized tasks plus four random extras, all distinct; the
    // remaining catalog tasks are off-bundle.
    std::vector<size_t> picks =
        rng.SampleWithoutReplacement(catalog.size(), 13);
    const size_t off_bundle = picks.back();
    picks.pop_back();
    est.BeginBundle(3, picks, interests);
    want.Begin(picks);

    std::vector<size_t> order = picks;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.NextBounded(i)]);
    }
    order.resize(9);
    const size_t duplicate = order[1];
    order.insert(order.begin() + 3, duplicate);
    order.insert(order.begin() + 5, off_bundle);
    for (size_t step = 0; step < order.size(); ++step) {
      est.ObserveCompletion(3, order[step]);
      want.Complete(order[step]);
      expect_same(DistanceKindName(kind) + " round " + std::to_string(round) +
                  " step " + std::to_string(step));
    }
  }
  EXPECT_GT(want.diversity_count(), 0u);
  EXPECT_GT(want.relevance_count(), 0u);
}

// ReplayEstimates (a fresh estimator over its own CatalogCache) lands
// on exactly the live service's weights for every worker.
TEST_P(EstimatorScalarEquivalenceTest, ReplayMatchesLiveServiceExactly) {
  const DistanceKind kind = GetParam();
  const std::vector<Task> catalog = RandomCatalog(240, /*seed=*/61);
  EventLog log;
  AssignmentServiceOptions options;
  options.metric = kind;
  options.xmax = 5;
  options.extra_random_tasks = 2;
  options.refresh_after_completions = 3;
  options.max_tasks_per_iteration = 60;
  options.event_log = &log;
  AssignmentService service(&catalog, options);

  Rng rng(62);
  std::vector<uint64_t> ids;
  std::vector<Worker> workers;
  for (int q = 0; q < 3; ++q) {
    const KeywordVector interests = RandomInterests(&rng);
    ids.push_back(service.RegisterWorker(interests));
    workers.emplace_back(ids.back(), interests);
  }
  double minute = 0.0;
  for (int round = 0; round < 8; ++round) {
    for (uint64_t id : ids) {
      const std::vector<size_t> displayed = service.Displayed(id);
      if (displayed.empty()) continue;
      minute += 0.25;
      service.AdvanceClock(minute);
      const size_t pick = displayed[rng.NextBounded(displayed.size())];
      ASSERT_TRUE(service.NotifyCompleted(id, pick).ok());
    }
  }

  auto replayed = ReplayEstimates(log, catalog, workers, kind);
  ASSERT_TRUE(replayed.ok()) << replayed.status();
  for (uint64_t id : ids) {
    ASSERT_TRUE(replayed->count(id)) << "worker " << id;
    EXPECT_EQ(replayed->at(id).alpha, service.CurrentWeights(id).alpha);
    EXPECT_EQ(replayed->at(id).beta, service.CurrentWeights(id).beta);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EstimatorScalarEquivalenceTest,
    ::testing::Values(DistanceKind::kJaccard, DistanceKind::kDice,
                      DistanceKind::kHamming, DistanceKind::kCosineAngular),
    [](const ::testing::TestParamInfo<DistanceKind>& info) {
      std::string name = DistanceKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace hta
