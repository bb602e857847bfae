// Statistical consistency of the Section III estimator: when simulated
// workers with known latent preferences choose tasks from realistic
// bundles, the recovered (alpha, beta) estimates must separate the
// populations in the right direction. This closes the loop between the
// estimator (engine) and the behavioral model (sim).
#include <algorithm>

#include <gtest/gtest.h>

#include "engine/motivation_estimator.h"
#include "sim/behavior.h"
#include "sim/catalog.h"
#include "util/stats.h"

namespace hta {
namespace {

class EstimatorConsistencyTest : public ::testing::Test {
 protected:
  EstimatorConsistencyTest() {
    CatalogOptions options;
    options.num_groups = 20;
    options.tasks_per_group = 30;
    options.vocabulary_size = 200;
    auto c = GenerateCatalog(options);
    HTA_CHECK(c.ok());
    catalog_ = std::move(*c);
  }

  /// Simulates one worker with the given latent preference completing
  /// `completions` tasks from random 12-task bundles, and returns the
  /// estimator's final alpha.
  double EstimateAlphaFor(double alpha_latent, uint64_t seed,
                          int completions = 24) {
    Rng rng(seed);
    BehaviorParams params;
    params.alpha_latent = alpha_latent;
    params.choice_noise = 0.05;
    // Anchor the worker's interests on a task group so relevance is a
    // usable signal.
    const KeywordVector interests =
        catalog_.tasks[rng.NextBounded(catalog_.size())].keywords();
    BehavioralWorker worker(&catalog_.tasks, DistanceKind::kJaccard,
                            Worker(seed, interests), params, rng.Fork(1));
    const CatalogCache cache(&catalog_.tasks, DistanceKind::kJaccard);
    MotivationEstimator estimator(&cache);

    int done = 0;
    while (done < completions) {
      // A fresh random bundle each refresh, like the platform's display.
      std::vector<size_t> bundle =
          rng.SampleWithoutReplacement(catalog_.size(), 12);
      estimator.BeginBundle(seed, bundle, interests);
      for (int k = 0; k < 6 && done < completions; ++k, ++done) {
        // The worker picks among the not-yet-completed bundle tasks
        // (the estimator tracks completion internally; the local erase
        // below keeps the choice set in sync).
        const size_t chosen = worker.ChooseTask(bundle);
        worker.RecordCompletion(chosen);
        estimator.ObserveCompletion(seed, chosen);
        // Remove chosen from the local bundle view.
        bundle.erase(std::find(bundle.begin(), bundle.end(), chosen));
      }
    }
    return estimator.Estimate(seed).alpha;
  }

  Catalog catalog_;
};

TEST_F(EstimatorConsistencyTest, SeparatesDiversityAndRelevanceLovers) {
  std::vector<double> diversity_lover_alphas;
  std::vector<double> relevance_lover_alphas;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    diversity_lover_alphas.push_back(EstimateAlphaFor(0.95, seed));
    relevance_lover_alphas.push_back(EstimateAlphaFor(0.05, 100 + seed));
  }
  const double div_mean = Summarize(diversity_lover_alphas).mean;
  const double rel_mean = Summarize(relevance_lover_alphas).mean;
  EXPECT_GT(div_mean, rel_mean + 0.03)
      << "estimator failed to separate latent preferences: div-lover mean "
      << div_mean << " vs rel-lover mean " << rel_mean;
  // The separation should also be statistically significant.
  auto u = MannWhitneyUTest(diversity_lover_alphas, relevance_lover_alphas);
  ASSERT_TRUE(u.ok());
  EXPECT_LT(u->p_value, 0.05);
}

TEST_F(EstimatorConsistencyTest, EstimatesMonotoneInLatentAlpha) {
  // Averaged over seeds, the estimate should increase with the latent
  // preference across a 3-point sweep.
  auto mean_estimate = [&](double alpha_latent, uint64_t base) {
    double sum = 0.0;
    for (uint64_t s = 0; s < 8; ++s) {
      sum += EstimateAlphaFor(alpha_latent, base + s);
    }
    return sum / 8.0;
  };
  const double low = mean_estimate(0.1, 200);
  const double mid = mean_estimate(0.5, 300);
  const double high = mean_estimate(0.9, 400);
  EXPECT_LT(low, high);
  EXPECT_LE(low, mid + 0.05);
  EXPECT_LE(mid, high + 0.05);
}

}  // namespace
}  // namespace hta
