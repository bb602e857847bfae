// Unit tests for the warm catalog caches (core/catalog_cache.h):
// packed-row distances (bit-identity against the scalar reference),
// and the subset problems HtaProblem::CreateFromSubset builds from a
// cache: non-contiguous samples, gathered rows bit-identical to
// repacking, the rows gathered once and shared by every copy, the
// packed-rows oracle against a local oracle, subset problems solving
// bit-identically to a cold Create over copied tasks, and
// FillRelevanceRow against the scalar and swept relevance.
#include "core/catalog_cache.h"

#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "assign/baselines.h"
#include "core/distance.h"
#include "core/packed_set.h"
#include "core/task.h"
#include "core/worker.h"
#include "qap/hta_problem.h"
#include "util/rng.h"

namespace hta {
namespace {

constexpr DistanceKind kAllKinds[] = {
    DistanceKind::kJaccard, DistanceKind::kDice, DistanceKind::kHamming,
    DistanceKind::kCosineAngular};

std::vector<Task> RandomCatalog(size_t n, size_t universe, uint64_t seed) {
  Rng rng(seed);
  std::vector<Task> tasks;
  tasks.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    KeywordVector v(universe);
    const size_t bits = 1 + rng.NextBounded(6);
    for (size_t b = 0; b < bits; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(universe)));
    }
    tasks.emplace_back(i, v);
  }
  return tasks;
}

TEST(CatalogCacheTest, DistanceBitIdenticalToScalarReferenceForEveryKind) {
  const auto catalog = RandomCatalog(60, 100, 11);
  for (const DistanceKind kind : kAllKinds) {
    const CatalogCache cache(&catalog, kind);
    for (size_t i = 0; i < catalog.size(); ++i) {
      EXPECT_EQ(cache.Distance(i, i), 0.0);
      for (size_t j = i + 1; j < catalog.size(); ++j) {
        const double expected =
            PairwiseTaskDiversity(kind, catalog[i], catalog[j]);
        EXPECT_EQ(cache.Distance(i, j), expected)
            << DistanceKindName(kind) << " (" << i << "," << j << ")";
        EXPECT_EQ(cache.Distance(j, i), expected);
      }
    }
  }
}

// The three-argument constructor (empty Options) answers every ordered
// pair, diagonal included, bit-identically to the scalar reference.
TEST(CatalogCacheTest, DisabledTriangleStillBitIdentical) {
  const auto catalog = RandomCatalog(40, 80, 12);
  for (const DistanceKind kind : kAllKinds) {
    const CatalogCache cache(&catalog, kind, CatalogCache::Options{});
    for (size_t i = 0; i < catalog.size(); ++i) {
      for (size_t j = 0; j < catalog.size(); ++j) {
        EXPECT_EQ(cache.Distance(i, j),
                  PairwiseTaskDiversity(kind, catalog[i], catalog[j]));
      }
    }
  }
}

// A one-worker subset problem over `sample`; Dice needs
// allow_non_metric.
HtaProblem SubsetProblem(const CatalogCache& cache,
                         const std::vector<size_t>& sample,
                         const std::vector<Worker>* workers) {
  auto problem = HtaProblem::CreateFromSubset(cache, sample, workers,
                                              /*xmax=*/2,
                                              /*allow_non_metric=*/true);
  HTA_CHECK(problem.ok()) << problem.status();
  return std::move(*problem);
}

std::vector<Worker> OneWorker(size_t universe) {
  return {Worker(1, KeywordVector(universe, {1, 2}),
                 MotivationWeights{0.5, 0.5})};
}

TEST(CatalogSubsetViewTest, NonContiguousRemapExposesUnderlyingTasks) {
  const auto catalog = RandomCatalog(64, 50, 15);
  const CatalogCache cache(&catalog, DistanceKind::kJaccard);
  const std::vector<size_t> sample = {3, 7, 20, 21, 50, 63};
  const std::vector<Worker> workers = OneWorker(50);
  const HtaProblem problem = SubsetProblem(cache, sample, &workers);
  ASSERT_EQ(problem.task_count(), sample.size());
  EXPECT_EQ(problem.distance_kind(), DistanceKind::kJaccard);
  // Local row k is catalog row sample[k].
  const std::shared_ptr<const PackedSetMatrix> rows =
      problem.oracle().PackedRows();
  for (size_t k = 0; k < sample.size(); ++k) {
    EXPECT_EQ(rows->count(k), cache.packed().count(sample[k]));
    for (size_t b = 0; b < rows->row_blocks(); ++b) {
      EXPECT_EQ(rows->row(k)[b], cache.packed().row(sample[k])[b]);
    }
  }
  const TaskDistanceOracle& oracle = problem.oracle();
  for (size_t a = 0; a < sample.size(); ++a) {
    for (size_t b = 0; b < sample.size(); ++b) {
      EXPECT_EQ(oracle(static_cast<TaskIndex>(a), static_cast<TaskIndex>(b)),
                PairwiseTaskDiversity(DistanceKind::kJaccard,
                                      catalog[sample[a]], catalog[sample[b]]));
    }
  }
}

TEST(CatalogSubsetViewTest, GatherPackedRowsBitIdenticalToRepacking) {
  const auto catalog = RandomCatalog(70, 130, 16);
  const CatalogCache cache(&catalog, DistanceKind::kJaccard);
  const std::vector<size_t> sample = {69, 0, 33, 33, 12, 68};  // Unsorted,
                                                               // repeated.
  const std::vector<Worker> workers = OneWorker(130);
  const HtaProblem problem = SubsetProblem(cache, sample, &workers);
  const PackedSetMatrix& gathered = *problem.oracle().PackedRows();

  std::vector<Task> copies;
  for (size_t c : sample) copies.push_back(catalog[c]);
  const PackedSetMatrix repacked = PackedSetMatrix::FromTasks(copies);

  ASSERT_EQ(gathered.rows(), repacked.rows());
  ASSERT_EQ(gathered.row_blocks(), repacked.row_blocks());
  ASSERT_EQ(gathered.universe_size(), repacked.universe_size());
  for (size_t r = 0; r < gathered.rows(); ++r) {
    EXPECT_EQ(gathered.count(r), repacked.count(r));
    for (size_t b = 0; b < gathered.row_blocks(); ++b) {
      EXPECT_EQ(gathered.row(r)[b], repacked.row(r)[b])
          << "row " << r << " block " << b;
    }
  }
}

// A subset problem gathers its rows once: PackedRows() hands out the
// held rows (no second gather), WithWorkers copies share them, and the
// problem no longer needs the cache it was built from.
TEST(CatalogSubsetViewTest, SubsetProblemGathersRowsOnce) {
  const auto catalog = RandomCatalog(40, 70, 20);
  const std::vector<size_t> sample = {5, 17, 2, 39, 11};
  const std::vector<Worker> workers = OneWorker(70);
  auto cache = std::make_unique<CatalogCache>(&catalog, DistanceKind::kJaccard);
  const HtaProblem problem = SubsetProblem(*cache, sample, &workers);
  cache.reset();

  const std::shared_ptr<const PackedSetMatrix> rows =
      problem.oracle().PackedRows();
  EXPECT_EQ(problem.oracle().PackedRows(), rows);
  std::vector<Worker> reweighted = workers;
  reweighted[0].set_weights(MotivationWeights::DiversityOnly());
  const HtaProblem copy = problem.WithWorkers(&reweighted);
  EXPECT_EQ(copy.oracle().PackedRows(), rows);

  for (size_t a = 0; a < sample.size(); ++a) {
    for (size_t b = 0; b < sample.size(); ++b) {
      EXPECT_EQ(
          copy.oracle()(static_cast<TaskIndex>(a), static_cast<TaskIndex>(b)),
          PairwiseTaskDiversity(DistanceKind::kJaccard, catalog[sample[a]],
                                catalog[sample[b]]));
    }
  }
}

TEST(CatalogSubsetViewTest, SharedCacheOracleMatchesLocalOracle) {
  const auto catalog = RandomCatalog(50, 60, 17);
  const CatalogCache cache(&catalog, DistanceKind::kDice);
  const std::vector<size_t> sample = {1, 4, 9, 16, 25, 36, 49};
  const std::vector<Worker> workers = OneWorker(60);
  const HtaProblem problem = SubsetProblem(cache, sample, &workers);
  const TaskDistanceOracle& shared = problem.oracle();
  EXPECT_FALSE(shared.has_dense_matrix());
  EXPECT_EQ(shared.task_count(), sample.size());
  EXPECT_EQ(shared.kind(), DistanceKind::kDice);

  std::vector<Task> copies;
  for (size_t c : sample) copies.push_back(catalog[c]);
  const TaskDistanceOracle local(&copies, DistanceKind::kDice);
  for (size_t a = 0; a < sample.size(); ++a) {
    for (size_t b = 0; b < sample.size(); ++b) {
      EXPECT_EQ(shared(static_cast<TaskIndex>(a), static_cast<TaskIndex>(b)),
                local(static_cast<TaskIndex>(a), static_cast<TaskIndex>(b)));
    }
  }
}

TEST(CatalogSubsetViewTest, CreateFromSubsetSolvesBitIdenticallyToCreate) {
  const auto catalog = RandomCatalog(120, 90, 18);
  Rng worker_rng(99);
  std::vector<Worker> workers;
  for (uint64_t q = 0; q < 3; ++q) {
    KeywordVector interests(90);
    for (size_t b = 0; b < 5; ++b) {
      interests.Set(static_cast<KeywordId>(worker_rng.NextBounded(90)));
    }
    workers.emplace_back(q + 1, interests, MotivationWeights{0.6, 0.4});
  }
  // A sparse, non-contiguous sample, as the engine produces.
  std::vector<size_t> sample;
  for (size_t c = 2; c < catalog.size(); c += 3) sample.push_back(c);

  for (const DistanceKind kind : kAllKinds) {
    const CatalogCache cache(&catalog, kind);
    auto warm = HtaProblem::CreateFromSubset(cache, sample, &workers,
                                             /*xmax=*/4,
                                             /*allow_non_metric=*/true);
    ASSERT_TRUE(warm.ok()) << warm.status();

    std::vector<Task> copies;
    for (size_t c : sample) copies.push_back(catalog[c]);
    auto cold = HtaProblem::Create(&copies, &workers, /*xmax=*/4, kind,
                                   /*allow_non_metric=*/true);
    ASSERT_TRUE(cold.ok()) << cold.status();

    std::vector<double> warm_rel;
    std::vector<double> cold_rel;
    warm->FillRelevanceTable(&warm_rel);
    cold->FillRelevanceTable(&cold_rel);
    EXPECT_EQ(warm_rel, cold_rel);

    Rng warm_rng(7);
    Rng cold_rng(7);
    auto warm_solved = SolveWithStrategy(*warm, StrategyKind::kHtaGre,
                                         /*seed=*/5, &warm_rng);
    auto cold_solved = SolveWithStrategy(*cold, StrategyKind::kHtaGre,
                                         /*seed=*/5, &cold_rng);
    ASSERT_TRUE(warm_solved.ok()) << warm_solved.status();
    ASSERT_TRUE(cold_solved.ok()) << cold_solved.status();
    EXPECT_EQ(warm_solved->assignment.bundles, cold_solved->assignment.bundles)
        << DistanceKindName(kind);
    EXPECT_EQ(warm_solved->stats.motivation, cold_solved->stats.motivation);
  }
}

TEST(CatalogSubsetViewTest, EmptySubsetIsRejectedByCreateFromSubset) {
  const auto catalog = RandomCatalog(10, 30, 19);
  const CatalogCache cache(&catalog, DistanceKind::kJaccard);
  const std::vector<Worker> workers = OneWorker(30);
  auto problem = HtaProblem::CreateFromSubset(cache, {}, &workers,
                                              /*xmax=*/2);
  EXPECT_FALSE(problem.ok());
  EXPECT_EQ(problem.status().code(), StatusCode::kInvalidArgument);
}

// A full catalog relevance row equals, EXPECT_EQ and not just close,
// both the scalar TaskRelevance reference and a fresh batched
// RectangularRelevance sweep, for every kind and several thread caps.
// (The suite keeps the name it had next to the per-session rows.)
class SessionRelevanceBitIdentity
    : public ::testing::TestWithParam<std::tuple<DistanceKind, size_t>> {};

TEST_P(SessionRelevanceBitIdentity, RowsMatchScalarAndRectangularSweeps) {
  const DistanceKind kind = std::get<0>(GetParam());
  const size_t threads = std::get<1>(GetParam());
  constexpr size_t kUniverse = 64;
  const auto catalog = RandomCatalog(181, kUniverse, /*seed=*/11);
  Rng rng(12);
  std::vector<KeywordVector> interests;
  for (size_t w = 0; w < 5; ++w) {
    KeywordVector v(kUniverse);
    for (int b = 0; b < 4; ++b) {
      v.Set(static_cast<KeywordId>(rng.NextBounded(kUniverse)));
    }
    interests.push_back(v);
  }
  const CatalogCache cache(&catalog, kind);

  // One fresh batched catalog x workers sweep: the kernel behind every
  // solver relevance table.
  std::vector<double> swept(catalog.size() * interests.size());
  RectangularRelevance(cache.packed(), PackedSetMatrix::FromVectors(interests),
                       kind, swept.data(), threads);

  std::vector<double> row(catalog.size());
  for (size_t q = 0; q < interests.size(); ++q) {
    cache.FillRelevanceRow(interests[q], row.data(), threads);
    const Worker worker(100 + q, interests[q]);
    for (size_t t = 0; t < catalog.size(); ++t) {
      EXPECT_EQ(row[t], TaskRelevance(kind, catalog[t], worker))
          << "kind=" << DistanceKindName(kind) << " threads=" << threads
          << " q=" << q << " t=" << t;
      EXPECT_EQ(row[t], swept[t * interests.size() + q]) << "t=" << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndThreads, SessionRelevanceBitIdentity,
    ::testing::Combine(::testing::ValuesIn(kAllKinds),
                       ::testing::Values(size_t{0}, size_t{1}, size_t{2},
                                         size_t{4})),
    [](const ::testing::TestParamInfo<std::tuple<DistanceKind, size_t>>&
           info) {
      std::string name = DistanceKindName(std::get<0>(info.param)) +
                         "_threads" + std::to_string(std::get<1>(info.param));
      for (char& ch : name) {
        if (ch == '-') ch = '_';
      }
      return name;
    });

}  // namespace
}  // namespace hta
