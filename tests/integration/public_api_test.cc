// Exercises the library the way the README tells an adopter to use it:
// umbrella include surface, Result-based error handling at every
// boundary, and an end-to-end generate -> solve -> refine -> export ->
// reload -> resolve loop through the public API only.
#include <cstdio>

#include <gtest/gtest.h>

#include "assign/hta_solver.h"
#include "assign/local_search.h"
#include "engine/sharded_service.h"
#include "io/catalog_io.h"
#include "sim/online_experiment.h"
#include "sim/worker_gen.h"
#include "quality/aggregation.h"
#include "teams/team_formation.h"

namespace hta {
namespace {

TEST(PublicApiTest, ReadmeQuickstartFlow) {
  // Generate a marketplace.
  CatalogOptions catalog_options;
  catalog_options.num_groups = 15;
  catalog_options.tasks_per_group = 20;
  catalog_options.vocabulary_size = 150;
  auto catalog = GenerateCatalog(catalog_options);
  ASSERT_TRUE(catalog.ok());
  WorkerGenOptions worker_options;
  worker_options.count = 8;
  auto workers = GenerateWorkers(worker_options, *catalog);
  ASSERT_TRUE(workers.ok());

  // Solve.
  auto problem = HtaProblem::Create(&catalog->tasks, &*workers, 6);
  ASSERT_TRUE(problem.ok());
  auto solved = SolveHtaGre(*problem, 42);
  ASSERT_TRUE(solved.ok());
  ASSERT_TRUE(ValidateAssignment(*problem, solved->assignment).ok());

  // Refine.
  auto refined = ImproveAssignment(*problem, solved->assignment,
                                   LocalSearchOptions{});
  ASSERT_TRUE(refined.ok());
  EXPECT_GE(refined->motivation + 1e-9, solved->stats.motivation);

  // Export everything, reload, and solve again from files.
  const std::string dir = ::testing::TempDir();
  const std::string tasks_csv = dir + "/api_tasks.csv";
  const std::string workers_csv = dir + "/api_workers.csv";
  const std::string assignment_csv = dir + "/api_assignment.csv";
  ASSERT_TRUE(SaveCatalogCsv(*catalog, tasks_csv).ok());
  ASSERT_TRUE(SaveWorkersCsv(*workers, catalog->space, workers_csv).ok());
  ASSERT_TRUE(SaveAssignmentCsv(refined->assignment, *workers,
                                catalog->tasks, assignment_csv)
                  .ok());

  auto deployment = LoadDeployment(tasks_csv, workers_csv);
  ASSERT_TRUE(deployment.ok());
  auto reloaded_problem = HtaProblem::Create(&deployment->catalog.tasks,
                                             &deployment->workers, 6);
  ASSERT_TRUE(reloaded_problem.ok());
  auto resolved = SolveHtaGre(*reloaded_problem, 42);
  ASSERT_TRUE(resolved.ok());
  // Same marketplace, same seed: the objective matches up to the CSV
  // round-trip precision (weights are persisted at 6 decimals).
  EXPECT_NEAR(resolved->stats.motivation, solved->stats.motivation, 1e-3);

  std::remove(tasks_csv.c_str());
  std::remove(workers_csv.c_str());
  std::remove(assignment_csv.c_str());
}

TEST(PublicApiTest, AllSolverEntryPointsAgreeOnFeasibility) {
  CatalogOptions catalog_options;
  catalog_options.num_groups = 10;
  catalog_options.tasks_per_group = 15;
  auto catalog = GenerateCatalog(catalog_options);
  ASSERT_TRUE(catalog.ok());
  WorkerGenOptions worker_options;
  worker_options.count = 5;
  auto workers = GenerateWorkers(worker_options, *catalog);
  ASSERT_TRUE(workers.ok());
  auto problem = HtaProblem::Create(&catalog->tasks, &*workers, 4);
  ASSERT_TRUE(problem.ok());

  Rng rng(5);
  for (StrategyKind kind :
       {StrategyKind::kHtaGre, StrategyKind::kHtaGreDiv,
        StrategyKind::kHtaGreRel, StrategyKind::kRandom}) {
    auto result = SolveWithStrategy(*problem, kind, 9, &rng);
    ASSERT_TRUE(result.ok()) << StrategyName(kind);
    EXPECT_TRUE(ValidateAssignment(*problem, result->assignment).ok());
  }
}

TEST(PublicApiTest, TeamsComposeWithGeneratedMarketplace) {
  CatalogOptions catalog_options;
  catalog_options.num_groups = 8;
  catalog_options.tasks_per_group = 4;
  auto catalog = GenerateCatalog(catalog_options);
  ASSERT_TRUE(catalog.ok());
  WorkerGenOptions worker_options;
  worker_options.count = 10;
  worker_options.group_affinity = 0.8;
  auto workers = GenerateWorkers(worker_options, *catalog);
  ASSERT_TRUE(workers.ok());

  std::vector<CollaborativeTask> collaborative;
  for (size_t t = 0; t < 4; ++t) {
    collaborative.push_back({catalog->tasks[t * 5], 2});
  }
  auto teams = FormTeamsGreedy(collaborative, *workers, TeamScoreWeights{});
  ASSERT_TRUE(teams.ok());
  ASSERT_EQ(teams->teams.size(), 4u);
  for (size_t t = 0; t < 4; ++t) {
    EXPECT_GE(
        TeamCoverage(collaborative[t].task, teams->teams[t], *workers), 0.0);
  }
}

TEST(PublicApiTest, ErrorsSurfaceAsStatusesNotCrashes) {
  // Every documented misuse of the public API returns a Status.
  const std::vector<Task> no_tasks;
  std::vector<Task> tasks;
  tasks.emplace_back(0, KeywordVector(8, {1}));
  const std::vector<Worker> no_workers;
  std::vector<Worker> workers;
  workers.emplace_back(0, KeywordVector(8, {1}));

  EXPECT_FALSE(HtaProblem::Create(&no_tasks, &workers, 1).ok());
  EXPECT_FALSE(HtaProblem::Create(&tasks, &no_workers, 1).ok());
  EXPECT_FALSE(HtaProblem::Create(&tasks, &workers, 0).ok());
  EXPECT_FALSE(LoadCatalogCsv("/nonexistent/x.csv").ok());
  EXPECT_FALSE(FormTeamsGreedy({}, workers, TeamScoreWeights{}).ok());
  EXPECT_FALSE(MajorityVote({}, 2).ok());
}

}  // namespace
}  // namespace hta
