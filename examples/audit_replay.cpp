// Audit-log replay: run a short deployment with the audit log enabled,
// persist it to CSV, reload it, and recompute every worker's (alpha,
// beta) estimate offline — bit-identical to what the live service
// computed. This is the operational story for Section III's "observe
// workers, capture their motivation": the observation stream is
// durable and reanalyzable.
//
// Run: ./build/examples/audit_replay
#include <cstdio>
#include <iostream>

#include "engine/sharded_service.h"
#include "io/catalog_io.h"
#include "sim/behavior.h"
#include "sim/catalog.h"
#include "util/table.h"

int main() {
  using namespace hta;

  CatalogOptions catalog_options;
  catalog_options.num_groups = 20;
  catalog_options.tasks_per_group = 30;
  catalog_options.vocabulary_size = 200;
  auto catalog = GenerateCatalog(catalog_options);
  if (!catalog.ok()) {
    std::cerr << catalog.status() << "\n";
    return 1;
  }

  EventLog log;
  ShardedServiceOptions service_options;
  service_options.service.strategy = StrategyKind::kHtaGre;
  service_options.service.xmax = 8;
  service_options.service.extra_random_tasks = 2;
  service_options.service.refresh_after_completions = 4;
  service_options.service.max_tasks_per_iteration = 200;
  service_options.service.event_log = &log;
  ShardedAssignmentService service(&catalog->tasks, service_options);

  // Three simulated workers complete a few dozen tasks.
  std::vector<Worker> replay_workers;
  std::vector<uint64_t> ids;
  for (int q = 0; q < 3; ++q) {
    Rng rng(100 + q);
    BehaviorParams params;
    params.alpha_latent = 0.2 + 0.3 * q;  // A spread of preferences.
    const KeywordVector interests = catalog->tasks[q * 150].keywords();
    BehavioralWorker worker(&catalog->tasks, DistanceKind::kJaccard,
                            Worker(q, interests), params, rng);
    const uint64_t id = service.RegisterWorker(interests);
    ids.push_back(id);
    replay_workers.emplace_back(id, interests);
    double minute = service.shard_clock_minutes(service.ShardOfWorker(id));
    for (int step = 0; step < 16; ++step) {
      const auto displayed = service.Displayed(id);
      if (displayed.empty()) break;
      const size_t chosen = worker.ChooseTask(displayed);
      minute += worker.CompletionSeconds(chosen, displayed) / 60.0;
      worker.RecordCompletion(chosen);
      service.AdvanceClock(minute);
      if (!service.NotifyCompleted(id, chosen).ok()) break;
    }
    service.Deregister(id);
  }

  // Persist the audit log and load it back.
  const std::string path = "/tmp/hta_audit_example.csv";
  if (Status s = SaveEventLogCsv(log, path); !s.ok()) {
    std::cerr << s << "\n";
    return 1;
  }
  auto loaded = LoadEventLogCsv(path);
  std::remove(path.c_str());
  if (!loaded.ok()) {
    std::cerr << loaded.status() << "\n";
    return 1;
  }
  std::cout << "audit log: " << loaded->size()
            << " events persisted and reloaded\n\n";

  auto replayed = ReplayEstimates(*loaded, catalog->tasks, replay_workers);
  if (!replayed.ok()) {
    std::cerr << replayed.status() << "\n";
    return 1;
  }

  TableWriter table({"worker", "live alpha", "replayed alpha", "match"});
  for (uint64_t id : ids) {
    const MotivationWeights live = service.CurrentWeights(id);
    const MotivationWeights offline = replayed->at(id);
    table.AddRow({FmtInt(static_cast<long long>(id)),
                  FmtDouble(live.alpha, 6), FmtDouble(offline.alpha, 6),
                  live.alpha == offline.alpha ? "exact" : "DIFFERS"});
  }
  table.Print(std::cout);
  std::cout << "\nOffline replay reproduces the live service's motivation "
               "estimates exactly.\n";
  return 0;
}
