#include "io/catalog_io.h"

#include "io/csv.h"

#include <cstdio>
#include <set>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "assign/hta_solver.h"
#include "sim/worker_gen.h"

namespace hta {
namespace {

class CatalogIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CatalogOptions options;
    options.num_groups = 8;
    options.tasks_per_group = 6;
    options.vocabulary_size = 80;
    auto c = GenerateCatalog(options);
    HTA_CHECK(c.ok());
    catalog_ = std::move(*c);
  }
  void TearDown() override {
    std::remove(catalog_path_.c_str());
    std::remove(workers_path_.c_str());
    std::remove(assignment_path_.c_str());
  }

  Catalog catalog_;
  // Per-test file names: ctest runs each test as its own process, so
  // tests of this fixture run concurrently and must not share files.
  const std::string prefix_ =
      ::testing::TempDir() + "/hta_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::string catalog_path_ = prefix_ + "_catalog.csv";
  std::string workers_path_ = prefix_ + "_workers.csv";
  std::string assignment_path_ = prefix_ + "_assign.csv";
};

TEST_F(CatalogIoTest, CatalogRoundTrip) {
  ASSERT_TRUE(SaveCatalogCsv(catalog_, catalog_path_).ok());
  auto loaded = LoadCatalogCsv(catalog_path_);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), catalog_.size());
  for (size_t i = 0; i < catalog_.size(); ++i) {
    const Task& original = catalog_.tasks[i];
    const Task& restored = loaded->tasks[i];
    EXPECT_EQ(restored.id(), original.id());
    EXPECT_EQ(restored.title(), original.title());
    EXPECT_EQ(restored.group(), original.group());
    EXPECT_NEAR(restored.reward_usd(), original.reward_usd(), 1e-4);
    EXPECT_EQ(loaded->questions_per_task[i], catalog_.questions_per_task[i]);
    // Keyword sets match by name (ids may be renumbered).
    std::set<std::string> original_names;
    for (KeywordId id : original.keywords().ToIds()) {
      original_names.insert(catalog_.space.Name(id));
    }
    std::set<std::string> restored_names;
    for (KeywordId id : restored.keywords().ToIds()) {
      restored_names.insert(loaded->space.Name(id));
    }
    EXPECT_EQ(restored_names, original_names);
  }
}

TEST_F(CatalogIoTest, WorkersRoundTrip) {
  WorkerGenOptions options;
  options.count = 10;
  auto workers = GenerateWorkers(options, catalog_);
  ASSERT_TRUE(workers.ok());
  ASSERT_TRUE(SaveWorkersCsv(*workers, catalog_.space, workers_path_).ok());
  auto loaded = LoadWorkersCsv(workers_path_, catalog_.space);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), workers->size());
  for (size_t q = 0; q < workers->size(); ++q) {
    EXPECT_EQ((*loaded)[q].id(), (*workers)[q].id());
    EXPECT_NEAR((*loaded)[q].weights().alpha, (*workers)[q].weights().alpha,
                1e-6);
    EXPECT_TRUE((*loaded)[q].interests() == (*workers)[q].interests());
  }
}

TEST_F(CatalogIoTest, LoadedCatalogIsSolvable) {
  ASSERT_TRUE(SaveCatalogCsv(catalog_, catalog_path_).ok());
  auto loaded = LoadCatalogCsv(catalog_path_);
  ASSERT_TRUE(loaded.ok());
  WorkerGenOptions options;
  options.count = 4;
  auto workers = GenerateWorkers(options, *loaded);
  ASSERT_TRUE(workers.ok());
  auto problem = HtaProblem::Create(&loaded->tasks, &*workers, 5);
  ASSERT_TRUE(problem.ok());
  auto result = SolveHtaGre(*problem);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ValidateAssignment(*problem, result->assignment).ok());
}

TEST_F(CatalogIoTest, AssignmentExportListsAllPairs) {
  WorkerGenOptions options;
  options.count = 3;
  auto workers = GenerateWorkers(options, catalog_);
  ASSERT_TRUE(workers.ok());
  auto problem = HtaProblem::Create(&catalog_.tasks, &*workers, 4);
  ASSERT_TRUE(problem.ok());
  auto result = SolveHtaGre(*problem);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(SaveAssignmentCsv(result->assignment, *workers, catalog_.tasks,
                                assignment_path_)
                  .ok());
  auto exported = ReadCsvFile(assignment_path_);
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(exported->rows.size(), result->assignment.AssignedTaskCount());
  EXPECT_EQ(exported->header,
            (std::vector<std::string>{"worker_id", "task_id"}));
}

TEST_F(CatalogIoTest, DeploymentUnionsKeywordSpaces) {
  // A worker interested in a keyword no task carries must survive the
  // round trip via LoadDeployment (but not via the strict loaders).
  ASSERT_TRUE(SaveCatalogCsv(catalog_, catalog_path_).ok());
  CsvFile workers;
  workers.header = {"id", "alpha", "beta", "interests"};
  workers.rows = {{"7", "0.4", "0.6", "kw0;totally-new-keyword"}};
  ASSERT_TRUE(WriteCsvFile(workers_path_, workers).ok());

  auto strict_catalog = LoadCatalogCsv(catalog_path_);
  ASSERT_TRUE(strict_catalog.ok());
  EXPECT_FALSE(LoadWorkersCsv(workers_path_, strict_catalog->space).ok());

  auto deployment = LoadDeployment(catalog_path_, workers_path_);
  ASSERT_TRUE(deployment.ok());
  ASSERT_EQ(deployment->workers.size(), 1u);
  EXPECT_TRUE(deployment->catalog.space.Contains("totally-new-keyword"));
  EXPECT_EQ(deployment->workers[0].interests().Count(), 2u);
  // Task and worker vectors share one universe, so the problem builds.
  auto problem = HtaProblem::Create(&deployment->catalog.tasks,
                                    &deployment->workers, 3);
  EXPECT_TRUE(problem.ok());
}

TEST_F(CatalogIoTest, DeploymentWithNoNewKeywordsMatchesStrictLoad) {
  WorkerGenOptions options;
  options.count = 5;
  auto workers = GenerateWorkers(options, catalog_);
  ASSERT_TRUE(workers.ok());
  ASSERT_TRUE(SaveCatalogCsv(catalog_, catalog_path_).ok());
  ASSERT_TRUE(SaveWorkersCsv(*workers, catalog_.space, workers_path_).ok());
  auto deployment = LoadDeployment(catalog_path_, workers_path_);
  ASSERT_TRUE(deployment.ok());
  EXPECT_EQ(deployment->catalog.size(), catalog_.size());
  EXPECT_EQ(deployment->workers.size(), 5u);
}

TEST_F(CatalogIoTest, LoadRejectsWrongHeader) {
  CsvFile file;
  file.header = {"nope"};
  ASSERT_TRUE(WriteCsvFile(catalog_path_, file).ok());
  EXPECT_FALSE(LoadCatalogCsv(catalog_path_).ok());
  EXPECT_FALSE(LoadWorkersCsv(catalog_path_, catalog_.space).ok());
}

TEST_F(CatalogIoTest, LoadRejectsMalformedNumbers) {
  CsvFile file;
  file.header = {"id", "title", "group", "reward_usd", "questions",
                 "keywords"};
  file.rows = {{"x", "t", "0", "0.05", "1", "kw1"}};
  ASSERT_TRUE(WriteCsvFile(catalog_path_, file).ok());
  EXPECT_FALSE(LoadCatalogCsv(catalog_path_).ok());
}

TEST_F(CatalogIoTest, WorkersRejectUnknownKeywords) {
  CsvFile file;
  file.header = {"id", "alpha", "beta", "interests"};
  file.rows = {{"1", "0.5", "0.5", "not-a-keyword"}};
  ASSERT_TRUE(WriteCsvFile(workers_path_, file).ok());
  auto r = LoadWorkersCsv(workers_path_, catalog_.space);
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
}

// strtod accepts "nan" and "inf", so the loader passes them through;
// HtaProblem::Create is where every solve rejects them.
TEST_F(CatalogIoTest, NonFiniteWorkerWeightsLoadButCreateRejectsThem) {
  for (const auto& [alpha, beta] :
       {std::pair<std::string, std::string>{"nan", "0.5"},
        {"0.5", "nan"},
        {"inf", "0.5"}}) {
    CsvFile file;
    file.header = {"id", "alpha", "beta", "interests"};
    file.rows = {{"1", alpha, beta, "kw1"}, {"2", "0.5", "0.5", "kw2"}};
    ASSERT_TRUE(WriteCsvFile(workers_path_, file).ok());
    auto workers = LoadWorkersCsv(workers_path_, catalog_.space);
    ASSERT_TRUE(workers.ok()) << workers.status();
    auto problem = HtaProblem::Create(&catalog_.tasks, &*workers, 3);
    EXPECT_EQ(problem.status().code(), StatusCode::kInvalidArgument)
        << alpha << ", " << beta;
  }
}

TEST_F(CatalogIoTest, EventLogRoundTrip) {
  EventLog log;
  log.RecordRegistered(0.0, 1);
  log.RecordDisplayed(0.0, 1, {10, 11, 12});
  log.RecordCompleted(1.25, 1, 11);
  log.RecordDisplayed(2.5, 2, {13});
  log.RecordCompleted(3.75, 2, 13);
  log.RecordDeregistered(4.0, 1);
  const std::string path = ::testing::TempDir() + "/hta_events.csv";
  ASSERT_TRUE(SaveEventLogCsv(log, path).ok());
  auto loaded = LoadEventLogCsv(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->size(), 6u);
  for (size_t i = 0; i < loaded->size(); ++i) {
    EXPECT_EQ(loaded->events()[i].kind, log.events()[i].kind);
    EXPECT_EQ(loaded->events()[i].worker_id, log.events()[i].worker_id);
    EXPECT_EQ(loaded->events()[i].task_ids, log.events()[i].task_ids);
    EXPECT_NEAR(loaded->events()[i].minute, log.events()[i].minute, 1e-6);
  }
}

TEST_F(CatalogIoTest, EventLogRejectsBadKinds) {
  const std::string path = ::testing::TempDir() + "/hta_events_bad.csv";
  CsvFile file;
  file.header = {"minute", "worker_id", "kind", "task_ids"};
  file.rows = {{"0.0", "1", "exploded", "10"}};
  ASSERT_TRUE(WriteCsvFile(path, file).ok());
  EXPECT_FALSE(LoadEventLogCsv(path).ok());
  file.rows = {{"0.0", "1", "completed", "10;11"}};
  ASSERT_TRUE(WriteCsvFile(path, file).ok());
  EXPECT_FALSE(LoadEventLogCsv(path).ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hta
