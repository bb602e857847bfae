#include "engine/event_log.h"

#include <gtest/gtest.h>

#include "engine/assignment_service.h"
#include "sim/catalog.h"

namespace hta {
namespace {

TEST(EventLogTest, AppendsInOrder) {
  EventLog log;
  log.RecordDisplayed(0.0, 1, {10, 11});
  log.RecordCompleted(1.5, 1, 10);
  log.RecordCompleted(1.5, 1, 11);  // Equal timestamps allowed.
  ASSERT_EQ(log.size(), 3u);
  EXPECT_EQ(log.events()[0].kind, LoggedEvent::Kind::kDisplayed);
  EXPECT_EQ(log.events()[0].task_ids, (std::vector<uint64_t>{10, 11}));
  EXPECT_EQ(log.events()[1].kind, LoggedEvent::Kind::kCompleted);
  EXPECT_EQ(log.events()[2].minute, 1.5);
}

TEST(EventLogDeathTest, RejectsTimeTravel) {
  EventLog log;
  log.RecordCompleted(5.0, 1, 10);
  EXPECT_DEATH({ log.RecordCompleted(4.0, 1, 11); }, "time order");
}

TEST(ReplayTest, RecoversEstimatorState) {
  // Drive an estimator-equivalent sequence through a log and check the
  // replayed estimate matches a directly-driven estimator.
  std::vector<Task> catalog;
  catalog.emplace_back(100, KeywordVector(32, {1, 2, 3}));
  catalog.emplace_back(101, KeywordVector(32, {1, 2, 4}));
  catalog.emplace_back(102, KeywordVector(32, {10, 11, 12}));
  std::vector<Worker> workers;
  workers.emplace_back(7, KeywordVector(32, {1, 2, 3}));

  EventLog log;
  log.RecordDisplayed(0.0, 7, {100, 101, 102});
  log.RecordCompleted(1.0, 7, 100);
  log.RecordCompleted(2.0, 7, 102);

  auto replayed = ReplayEstimates(log, catalog, workers);
  ASSERT_TRUE(replayed.ok());
  ASSERT_TRUE(replayed->count(7));

  const CatalogCache cache(&catalog, DistanceKind::kJaccard);
  MotivationEstimator direct(&cache);
  direct.BeginBundle(7, {0, 1, 2}, workers[0].interests());
  direct.ObserveCompletion(7, 0);
  direct.ObserveCompletion(7, 2);
  const MotivationWeights expected = direct.Estimate(7);
  EXPECT_DOUBLE_EQ(replayed->at(7).alpha, expected.alpha);
  EXPECT_DOUBLE_EQ(replayed->at(7).beta, expected.beta);
}

TEST(ReplayTest, RejectsUnknownIds) {
  std::vector<Task> catalog;
  catalog.emplace_back(100, KeywordVector(32, {1}));
  std::vector<Worker> workers;
  workers.emplace_back(7, KeywordVector(32, {1}));

  EventLog unknown_task;
  unknown_task.RecordCompleted(0.0, 7, 999);
  EXPECT_EQ(ReplayEstimates(unknown_task, catalog, workers).status().code(),
            StatusCode::kNotFound);

  EventLog unknown_worker;
  unknown_worker.RecordCompleted(0.0, 42, 100);
  EXPECT_EQ(ReplayEstimates(unknown_worker, catalog, workers).status().code(),
            StatusCode::kNotFound);
}

class ServiceAuditTest : public ::testing::Test {
 protected:
  ServiceAuditTest() {
    CatalogOptions options;
    options.num_groups = 12;
    options.tasks_per_group = 20;
    options.vocabulary_size = 120;
    auto c = GenerateCatalog(options);
    HTA_CHECK(c.ok());
    catalog_ = std::move(*c);
  }
  Catalog catalog_;
};

TEST_F(ServiceAuditTest, LogCapturesDisplaysAndCompletions) {
  EventLog log;
  AssignmentServiceOptions options;
  options.strategy = StrategyKind::kHtaGreDiv;
  options.xmax = 5;
  options.extra_random_tasks = 2;
  options.refresh_after_completions = 3;
  options.max_tasks_per_iteration = 60;
  options.event_log = &log;
  AssignmentService service(&catalog_.tasks, options);

  const uint64_t id = service.RegisterWorker(catalog_.tasks[0].keywords());
  // Registration + the first displayed bundle.
  EXPECT_EQ(log.size(), 2u);
  EXPECT_EQ(log.events()[0].kind, LoggedEvent::Kind::kRegistered);
  EXPECT_TRUE(log.events()[0].task_ids.empty());
  for (int k = 0; k < 3; ++k) {
    service.AdvanceClock(static_cast<double>(k + 1));
    const auto displayed = service.Displayed(id);
    ASSERT_FALSE(displayed.empty());
    ASSERT_TRUE(service.NotifyCompleted(id, displayed[0]).ok());
  }
  // Registration + 1 display + 3 completions + 1 refresh display.
  EXPECT_EQ(log.size(), 6u);
  EXPECT_EQ(log.events().back().kind, LoggedEvent::Kind::kDisplayed);
  EXPECT_EQ(log.events()[2].minute, 1.0);

  service.Deregister(id);
  EXPECT_EQ(log.events().back().kind, LoggedEvent::Kind::kDeregistered);
  EXPECT_TRUE(log.events().back().task_ids.empty());
}

TEST_F(ServiceAuditTest, ReplayReproducesLiveEstimates) {
  // The headline invariant: replaying the audit log through the
  // offline estimator yields exactly the weights the live service
  // computed.
  EventLog log;
  AssignmentServiceOptions options;
  options.strategy = StrategyKind::kHtaGre;
  options.xmax = 6;
  options.extra_random_tasks = 2;
  options.refresh_after_completions = 3;
  options.max_tasks_per_iteration = 80;
  options.event_log = &log;
  AssignmentService service(&catalog_.tasks, options);

  std::vector<uint64_t> ids;
  std::vector<Worker> replay_workers;
  for (int q = 0; q < 3; ++q) {
    const KeywordVector interests = catalog_.tasks[q * 40].keywords();
    const uint64_t id = service.RegisterWorker(interests);
    ids.push_back(id);
    replay_workers.emplace_back(id, interests);
  }
  double minute = 0.0;
  for (int round = 0; round < 8; ++round) {
    for (uint64_t id : ids) {
      const auto displayed = service.Displayed(id);
      if (displayed.empty()) continue;
      minute += 0.25;
      service.AdvanceClock(minute);
      ASSERT_TRUE(service.NotifyCompleted(id, displayed[0]).ok());
    }
  }

  auto replayed = ReplayEstimates(log, catalog_.tasks, replay_workers);
  ASSERT_TRUE(replayed.ok());
  for (uint64_t id : ids) {
    const MotivationWeights live = service.CurrentWeights(id);
    ASSERT_TRUE(replayed->count(id)) << "worker " << id << " missing";
    EXPECT_DOUBLE_EQ(replayed->at(id).alpha, live.alpha);
    EXPECT_DOUBLE_EQ(replayed->at(id).beta, live.beta);
  }
}

TEST_F(ServiceAuditTest, ClockMustBeMonotone) {
  AssignmentServiceOptions options;
  AssignmentService service(&catalog_.tasks, options);
  service.AdvanceClock(5.0);
  EXPECT_DEATH({ service.AdvanceClock(4.0); }, "CHECK failed");
}

}  // namespace
}  // namespace hta
