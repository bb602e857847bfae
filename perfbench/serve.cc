// Serving workload (serve_sharded): simulated crowds replayed against the
// sharded assignment service through sim_internal::RunDeploymentLoop,
// with a timing proxy between the loop and the service. The loop is a
// closed loop with one client per driver thread: it waits for each reply
// before the next event, so the replay runs as fast as the service
// answers.
#include <algorithm>
#include <cmath>
#include <string>
#include <thread>
#include <utility>

#include "engine/sharded_service.h"
#include "layers.h"
#include "sim/behavior.h"
#include "sim/concurrent_deployment.h"
#include "sim/deployment_loop.h"
#include "sim/worker_gen.h"
#include "util/check.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace hta;

/// Shards, each driven by its own thread as RunShardedDeployment does.
constexpr size_t kShards = 2;
/// Catalog shape: 12,000 tasks per shard, so one replay's crowd never
/// drains a shard's pool below half its size, even when interest routing
/// sends most of the crowd to one shard.
constexpr size_t kGroupsPerShard = 60;
constexpr size_t kTasksPerGroup = 200;
constexpr size_t kVocabulary = 400;

/// A run keeps replaying fresh crowds until it has measured this many
/// refreshes (ten beyond p99) and its time is up.
constexpr size_t kMinRefreshes = 1000;
/// The deterministic outcome metrics are taken over this many timed
/// replays, which every run completes whatever the speed.
constexpr size_t kQualityReplays = 16;
/// Service constructions measured for setup_s beyond one per replay.
constexpr size_t kExtraSetups = 8;
/// Instances of the service's shape probed for the solver layers.
constexpr size_t kSolverProbes = 20;

/// The crowd of one replay: Poisson arrivals in simulated minutes, so
/// sessions overlap and iterations can batch several due workers.
constexpr size_t kCrowd = 30;
constexpr double kArrivalsPerMinute = 2.0;
constexpr double kSessionMinutes = 30.0;

ShardedServiceOptions ServiceOptions(uint64_t seed) {
  // Each shard runs the service defaults: HTA-GRE, 300-task sample, Xmax
  // 15 + 5 random, refresh after 5, min_batch_workers 1. Only what
  // differs is set here, and only through option fields.
  ShardedServiceOptions options;
  options.service.solver_threads = 1;  // The service is single-threaded.
  options.service.seed = seed;
  options.num_shards = kShards;
  return options;
}

/// What the proxies observed, summed over calls.
struct CallLog {
  std::vector<double> register_s;
  std::vector<double> refresh_s;
  std::vector<double> refresh_iteration_s;  ///< IterationRecord time.
  std::vector<double> plain_s;
  std::vector<double> relevance_row_s;  ///< Traced runs only.
  double busy_s = 0.0;                  ///< Inside service calls.
  double probe_s = 0.0;                 ///< Traced-only shadow work.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t completions = 0;
  size_t double_completions = 0;
  size_t oversized_displays = 0;
  size_t misrouted_workers = 0;
  size_t session_rel_peak_bytes = 0;
  /// Lowest available share of the service's task pool after a notify.
  double min_available_share = 1.0;
  std::string first_error;

  void Append(const CallLog& other) {
    const auto cat = [](std::vector<double>* to,
                        const std::vector<double>& from) {
      to->insert(to->end(), from.begin(), from.end());
    };
    cat(&register_s, other.register_s);
    cat(&refresh_s, other.refresh_s);
    cat(&refresh_iteration_s, other.refresh_iteration_s);
    cat(&plain_s, other.plain_s);
    cat(&relevance_row_s, other.relevance_row_s);
    busy_s += other.busy_s;
    probe_s += other.probe_s;
    attempted += other.attempted;
    failed += other.failed;
    completions += other.completions;
    double_completions += other.double_completions;
    oversized_displays += other.oversized_displays;
    misrouted_workers += other.misrouted_workers;
    session_rel_peak_bytes =
        std::max(session_rel_peak_bytes, other.session_rel_peak_bytes);
    min_available_share =
        std::min(min_available_share, other.min_available_share);
    if (first_error.empty()) first_error = other.first_error;
  }
};

/// Forwards the Service surface RunDeploymentLoop needs for one shard of
/// the sharded service, as RunShardedDeployment drives it (clock calls
/// touch only this shard's clock), and times every call. A notify is a
/// refresh when the shard's iteration count grew across it.
class TimedService {
 public:
  TimedService(ShardedAssignmentService* service, size_t shard,
               size_t catalog_size, size_t display_limit, CallLog* log,
               SpanLog* spans)
      : service_(service),
        shard_(shard),
        display_limit_(display_limit),
        completed_(catalog_size, 0),
        log_(log),
        spans_(spans) {}

  void AdvanceClock(double minute) {
    const Clock::time_point start = Clock::now();
    service_->AdvanceShardClock(shard_, minute);
    log_->busy_s += SecondsBetween(start, Clock::now());
  }

  uint64_t RegisterWorker(const KeywordVector& interests) {
    ++log_->attempted;
    const Clock::time_point start = Clock::now();
    const uint64_t id = service_->RegisterWorker(interests);
    const Clock::time_point end = Clock::now();
    const double seconds = SecondsBetween(start, end);
    log_->busy_s += seconds;
    log_->register_s.push_back(seconds);
    spans_->Add("service.register", start, end, id);
    if (service_->ShardOfWorker(id) != shard_) ++log_->misrouted_workers;
    if (spans_->enabled()) ShadowRelevanceRow(interests, id);
    return id;
  }

  std::vector<size_t> Displayed(uint64_t id) {
    ++log_->attempted;
    const Clock::time_point start = Clock::now();
    std::vector<size_t> shown = service_->Displayed(id);
    const Clock::time_point end = Clock::now();
    log_->busy_s += SecondsBetween(start, end);
    spans_->Add("service.displayed", start, end, id);
    if (shown.size() > display_limit_) ++log_->oversized_displays;
    return shown;
  }

  Status NotifyCompleted(uint64_t id, size_t task) {
    ++log_->attempted;
    if (task < completed_.size()) {
      if (completed_[task] != 0) ++log_->double_completions;
      completed_[task] = 1;
    }
    const size_t before = engine().iteration_count();
    const Clock::time_point start = Clock::now();
    const Status status = service_->NotifyCompleted(id, task);
    const Clock::time_point end = Clock::now();
    const double seconds = SecondsBetween(start, end);
    log_->busy_s += seconds;
    if (!status.ok()) {
      // Counted and reported; the replay carries on so the run still
      // prints its result (RunDeploymentLoop would abort on it).
      ++log_->failed;
      if (log_->first_error.empty()) log_->first_error = status.ToString();
      spans_->Add("service.notify.failed", start, end, id);
      return Status::OK();
    }
    ++log_->completions;
    const AssignmentService& engine = this->engine();
    log_->min_available_share =
        std::min(log_->min_available_share,
                 static_cast<double>(engine.pool().available_count()) /
                     static_cast<double>(engine.pool().size()));
    const std::vector<IterationRecord>& iterations = engine.iterations();
    if (iterations.size() > before) {
      const double inner = iterations.back().solve_seconds;
      log_->refresh_s.push_back(seconds);
      log_->refresh_iteration_s.push_back(inner);
      spans_->Add("service.notify.refresh", start, end, id, inner);
    } else {
      log_->plain_s.push_back(seconds);
      spans_->Add("service.notify", start, end, id);
    }
    return status;
  }

  void Deregister(uint64_t id) {
    ++log_->attempted;
    const Clock::time_point start = Clock::now();
    service_->Deregister(id);
    const Clock::time_point end = Clock::now();
    log_->busy_s += SecondsBetween(start, end);
    spans_->Add("service.deregister", start, end, id);
  }

  double clock_minutes() const {
    return service_->shard_clock_minutes(shard_);
  }

 private:
  /// Read without the shard lock: only this driver thread mutates it.
  const AssignmentService& engine() const { return service_->shard(shard_); }

  /// Traced runs only: times CatalogCache::FillRelevanceRow for the
  /// arriving worker on the service's own warm cache (the row the
  /// registration just built), and samples the session-row footprint.
  void ShadowRelevanceRow(const KeywordVector& interests, uint64_t id) {
    const AssignmentService& engine = this->engine();
    if (const SessionRelevanceCache* rows = engine.session_relevance()) {
      log_->session_rel_peak_bytes =
          std::max(log_->session_rel_peak_bytes, rows->bytes_used());
    }
    const CatalogCache* cache = engine.warm_cache();
    if (cache == nullptr) return;
    row_.resize(cache->catalog().size());
    const Clock::time_point start = Clock::now();
    cache->FillRelevanceRow(interests, row_.data(), /*max_threads=*/1);
    const Clock::time_point end = Clock::now();
    const double seconds = SecondsBetween(start, end);
    log_->relevance_row_s.push_back(seconds);
    log_->probe_s += seconds;
    spans_->Add("core.relevance_row", start, end, id);
  }

  ShardedAssignmentService* service_;
  size_t shard_;
  size_t display_limit_;
  std::vector<uint8_t> completed_;
  std::vector<double> row_;
  CallLog* log_;
  SpanLog* spans_;
};

struct Crowd {
  std::vector<Worker> profiles;
  std::vector<double> arrivals;
  uint64_t seed = 0;
};

Crowd MakeCrowd(const Catalog& catalog, uint64_t seed) {
  WorkerGenOptions options;
  options.count = kCrowd;
  options.group_affinity = 1.0;  // Relevance carries signal, as in Fig. 5.
  options.seed = seed;
  auto profiles = GenerateWorkers(options, catalog);
  HTA_CHECK(profiles.ok()) << profiles.status();
  Crowd crowd;
  crowd.profiles = std::move(*profiles);
  crowd.arrivals =
      PoissonArrivalMinutes(kCrowd, kArrivalsPerMinute, MixSeed(seed, 1));
  crowd.seed = seed;
  return crowd;
}

/// Fresh stateful behavioral workers for one replay.
std::vector<BehavioralWorker> Behave(const Catalog& catalog,
                                     const Crowd& crowd) {
  std::vector<BehavioralWorker> workers;
  workers.reserve(crowd.profiles.size());
  for (size_t s = 0; s < crowd.profiles.size(); ++s) {
    Rng rng(MixSeed(crowd.seed, 16 + s));
    const BehaviorParams params = SampleBehaviorParams(&rng);
    workers.emplace_back(&catalog.tasks, DistanceKind::kJaccard,
                         crowd.profiles[s], params, rng.Fork(17));
  }
  return workers;
}

/// One replay's outcome. The sums over sessions and iterations are
/// deterministic; the times are not.
struct ReplayResult {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double thread_wall_s = 0.0;  ///< Σ over driver threads.
  size_t sessions = 0;
  size_t completed_tasks = 0;
  double motivation_sum = 0.0;
  size_t bundle_workers = 0;
  size_t solver_iterations = 0;
  size_t solver_tasks = 0;
  std::vector<double> iteration_setup_s;
  std::vector<size_t> shard_completions;
  std::vector<double> driver_busy_share;
  /// This replay's own timing figures. A run reports their median over
  /// replays, which stays with the majority when a host slow-down covers
  /// part of the run.
  double completions_per_s = 0.0;
  double refresh_p50_s = 0.0;
  double register_p50_s = 0.0;

  bool SameOutcome(const ReplayResult& other) const {
    return sessions == other.sessions &&
           completed_tasks == other.completed_tasks &&
           motivation_sum == other.motivation_sum &&
           bundle_workers == other.bundle_workers &&
           solver_iterations == other.solver_iterations;
  }
};

void TallyIterations(const AssignmentService& engine, ReplayResult* result) {
  for (const IterationRecord& record : engine.iterations()) {
    if (record.task_count == 0) continue;  // Cold-start random bundle.
    ++result->solver_iterations;
    result->motivation_sum += record.motivation;
    result->bundle_workers += record.worker_count;
    result->solver_tasks += record.task_count;
    result->iteration_setup_s.push_back(record.setup_seconds);
  }
}

size_t DisplayLimit(const ShardedServiceOptions& options) {
  return options.service.xmax + options.service.extra_random_tasks;
}

/// Replays `crowd` against a fresh sharded service, one driver thread
/// per shard as RunShardedDeployment does. Only the driver threads are
/// inside wall_s; construction is setup_s.
ReplayResult Replay(const Catalog& catalog, const Crowd& crowd,
                    CallLog* calls, SpanLog* spans) {
  const ShardedServiceOptions options = ServiceOptions(crowd.seed);
  std::vector<BehavioralWorker> workers = Behave(catalog, crowd);
  std::vector<SessionResult> sessions(workers.size());
  SessionConfig session;
  session.max_minutes = kSessionMinutes;
  ReplayResult result;
  CallLog replay_calls;

  const Clock::time_point setup_start = Clock::now();
  ShardedAssignmentService service(&catalog.tasks, options);
  result.setup_s = SecondsBetween(setup_start, Clock::now());
  HTA_CHECK_EQ(service.num_shards(), kShards);

  std::vector<std::vector<size_t>> shard_slots(kShards);
  for (size_t slot = 0; slot < workers.size(); ++slot) {
    shard_slots[service.ShardForInterests(workers[slot].profile().interests())]
        .push_back(slot);
  }
  std::vector<CallLog> logs(kShards);
  std::vector<SpanLog> shard_spans;
  for (size_t s = 0; s < kShards; ++s) {
    shard_spans.emplace_back(spans->enabled(), static_cast<uint32_t>(s + 1));
  }
  std::vector<double> thread_wall(kShards, 0.0);
  const auto drive = [&](size_t s) {
    TimedService proxy(&service, s, catalog.size(), DisplayLimit(options),
                       &logs[s], &shard_spans[s]);
    const Clock::time_point start = Clock::now();
    sim_internal::RunDeploymentLoop(&proxy, catalog, &workers, shard_slots[s],
                                    crowd.arrivals, session, &sessions);
    thread_wall[s] = SecondsBetween(start, Clock::now());
  };
  const Clock::time_point start = Clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(kShards);
    for (size_t s = 0; s < kShards; ++s) threads.emplace_back(drive, s);
    for (std::thread& thread : threads) thread.join();
  }
  result.wall_s = SecondsBetween(start, Clock::now());
  for (size_t s = 0; s < kShards; ++s) {
    result.thread_wall_s += thread_wall[s];
    result.driver_busy_share.push_back(
        thread_wall[s] > 0.0 ? logs[s].busy_s / thread_wall[s] : 0.0);
    result.shard_completions.push_back(logs[s].completions);
    TallyIterations(service.shard(s), &result);
    replay_calls.Append(logs[s]);
    spans->Append(shard_spans[s]);
  }
  result.completions_per_s =
      static_cast<double>(replay_calls.completions) / result.wall_s;
  result.refresh_p50_s = Median(replay_calls.refresh_s);
  result.register_p50_s = Median(replay_calls.register_s);
  calls->Append(replay_calls);

  for (const SessionResult& s : sessions) {
    ++result.sessions;
    result.completed_tasks += s.tasks_completed();
  }
  return result;
}

/// Replays summed for metric extraction.
struct ReplayTotals {
  double wall_s = 0.0;
  double thread_wall_s = 0.0;
  size_t replays = 0;
  size_t sessions = 0;
  size_t completed_tasks = 0;
  double motivation_sum = 0.0;
  size_t bundle_workers = 0;
  size_t solver_iterations = 0;
  size_t solver_tasks = 0;
  std::vector<double> setup_s;
  std::vector<double> iteration_setup_s;
  std::vector<double> shard_completions;
  std::vector<double> driver_busy_share;
  std::vector<double> completions_per_s;
  std::vector<double> refresh_p50_s;
  std::vector<double> register_p50_s;

  void Add(const ReplayResult& r) {
    completions_per_s.push_back(r.completions_per_s);
    refresh_p50_s.push_back(r.refresh_p50_s);
    register_p50_s.push_back(r.register_p50_s);
    wall_s += r.wall_s;
    thread_wall_s += r.thread_wall_s;
    ++replays;
    sessions += r.sessions;
    completed_tasks += r.completed_tasks;
    motivation_sum += r.motivation_sum;
    bundle_workers += r.bundle_workers;
    solver_iterations += r.solver_iterations;
    solver_tasks += r.solver_tasks;
    setup_s.push_back(r.setup_s);
    iteration_setup_s.insert(iteration_setup_s.end(),
                             r.iteration_setup_s.begin(),
                             r.iteration_setup_s.end());
    shard_completions.resize(
        std::max(shard_completions.size(), r.shard_completions.size()), 0.0);
    for (size_t s = 0; s < r.shard_completions.size(); ++s) {
      shard_completions[s] += static_cast<double>(r.shard_completions[s]);
    }
    driver_busy_share.insert(driver_busy_share.end(),
                             r.driver_busy_share.begin(),
                             r.driver_busy_share.end());
  }
};

/// Checks that the proxies saw a clean replay.
void CheckCalls(const CallLog& calls, RunReport* report) {
  report->attempted += calls.attempted;
  report->failed += calls.failed;
  report->Check(calls.failed == 0,
                "NotifyCompleted returned non-OK: " + calls.first_error);
  report->Check(calls.double_completions == 0,
                "a catalog task was completed twice");
  report->Check(calls.oversized_displays == 0,
                "a Displayed list exceeded xmax + extras");
  report->Check(calls.misrouted_workers == 0,
                "a worker was registered on another shard");
}

/// Adds the engine, shard, core, sim and qap.iteration_setup_us metrics
/// of traced replays. `cache_build_s` are CatalogCache constructions.
void AddEngineLayerMetrics(const CallLog& calls, const ReplayTotals& totals,
                           const std::vector<double>& cache_build_s,
                           RunReport* report) {
  std::vector<double> overhead_s(calls.refresh_s.size());
  double refresh_sum = 0.0;
  double iteration_sum = 0.0;
  for (size_t i = 0; i < calls.refresh_s.size(); ++i) {
    overhead_s[i] = calls.refresh_s[i] - calls.refresh_iteration_s[i];
    refresh_sum += calls.refresh_s[i];
    iteration_sum += calls.refresh_iteration_s[i];
  }
  const double plain_p50 = Median(calls.plain_s);
  const double iterations = static_cast<double>(totals.solver_iterations);
  std::vector<Metric>& m = report->per_layer;
  m.push_back({"engine.notify_plain_us", plain_p50 * 1e6, "us"});
  m.push_back({"engine.plain_notifies",
               static_cast<double>(calls.plain_s.size()), "count"});
  m.push_back({"engine.refreshes", static_cast<double>(calls.refresh_s.size()),
               "count"});
  m.push_back({"engine.iteration_solve_ms",
               Median(calls.refresh_iteration_s) * 1e3, "ms"});
  m.push_back({"engine.refresh_overhead_us", Median(overhead_s) * 1e6, "us"});
  m.push_back({"engine.workers_per_iteration",
               Ratio(static_cast<double>(totals.bundle_workers), iterations),
               "count"});
  m.push_back({"engine.tasks_per_solve",
               Ratio(static_cast<double>(totals.solver_tasks), iterations),
               "count"});
  m.push_back({"engine.session_rel_mb",
               static_cast<double>(calls.session_rel_peak_bytes) / kMiB, "MB"});
  m.push_back({"engine.failed_ops", static_cast<double>(calls.failed),
               "count"});
  const double mean_completions = Mean(totals.shard_completions);
  m.push_back({"shard.imbalance",
               Ratio(*std::max_element(totals.shard_completions.begin(),
                                       totals.shard_completions.end()),
                     mean_completions),
               "ratio"});
  m.push_back({"shard.driver_busy_share", Mean(totals.driver_busy_share),
               "share"});
  m.push_back({"qap.iteration_setup_us",
               Median(totals.iteration_setup_s) * 1e6, "us"});
  m.push_back({"core.relevance_row_us", Median(calls.relevance_row_s) * 1e6,
               "us"});
  m.push_back({"core.cache_build_ms", Median(cache_build_s) * 1e3, "ms"});
  m.push_back({"sim.busy_share",
               Ratio(totals.thread_wall_s - calls.busy_s - calls.probe_s,
                     totals.thread_wall_s),
               "share"});
  // refresh = iteration + overhead, with the overhead estimated
  // independently as the bookkeeping a plain notify pays.
  const double refresh_ratio = Ratio(
      iteration_sum + plain_p50 * static_cast<double>(calls.refresh_s.size()),
      refresh_sum);
  m.push_back({"check.refresh_sum_ratio", refresh_ratio, "ratio"});
  report->Check(refresh_ratio > 0.95 && refresh_ratio < 1.05,
                "refresh decomposition off by more than 5%: ratio " +
                    std::to_string(refresh_ratio));
}

std::vector<double> TimeCacheBuilds(const Catalog& catalog, size_t count) {
  std::vector<double> seconds;
  for (size_t i = 0; i < count; ++i) {
    const Clock::time_point start = Clock::now();
    CatalogCache cache(&catalog.tasks, DistanceKind::kJaccard,
                       CatalogCache::Options{});
    seconds.push_back(SecondsBetween(start, Clock::now()));
  }
  return seconds;
}

}  // namespace

RunReport RunServe(const RunConfig& config, SpanLog* spans) {
  CatalogOptions catalog_options;
  catalog_options.num_groups = kGroupsPerShard * kShards;
  catalog_options.tasks_per_group = kTasksPerGroup;
  catalog_options.vocabulary_size = kVocabulary;
  catalog_options.seed = MixSeed(config.seed, 0);
  auto catalog_or = GenerateCatalog(catalog_options);
  HTA_CHECK(catalog_or.ok()) << catalog_or.status();
  const Catalog& catalog = *catalog_or;
  const auto crowd_seed = [&](size_t k) { return MixSeed(config.seed, 100 + k); };

  RunReport report;
  SpanLog untraced(false, 0);

  // Warm-up: replay 0, untimed, so allocator and page state settle; its
  // outcome must repeat exactly in the first timed replay.
  CallLog warmup_calls;
  const ReplayResult warmup =
      Replay(catalog, MakeCrowd(catalog, crowd_seed(0)), &warmup_calls,
             &untraced);
  CheckCalls(warmup_calls, &report);

  // Untimed runs time every call too; traced runs also record spans and
  // the shadow probes, alternating with an untraced replay of the same
  // crowd so the tracing overhead is measured on identical work.
  CallLog calls;         // The calls behind the reported metrics.
  CallLog plain_calls;   // Traced runs: the untraced twin replays.
  ReplayTotals totals;
  ReplayTotals plain_totals;
  ReplayTotals quality;
  ReplayResult first;
  const Clock::time_point origin = Clock::now();
  for (size_t k = 0;; ++k) {
    const Crowd crowd = MakeCrowd(catalog, crowd_seed(k));
    if (config.trace) {
      plain_totals.Add(Replay(catalog, crowd, &plain_calls, &untraced));
    }
    const ReplayResult result =
        Replay(catalog, crowd, &calls, config.trace ? spans : &untraced);
    if (k == 0) first = result;
    if (k < kQualityReplays) quality.Add(result);
    totals.Add(result);
    if (k + 1 >= kQualityReplays && calls.refresh_s.size() >= kMinRefreshes &&
        SecondsBetween(origin, Clock::now()) >= config.seconds) {
      break;
    }
  }
  CheckCalls(calls, &report);
  if (config.trace) CheckCalls(plain_calls, &report);
  report.Check(calls.min_available_share > 0.5,
               "the task pool fell below half the catalog");
  report.Check(first.SameOutcome(warmup),
               "replay is not deterministic: the warm-up and the first timed "
               "replay of the same crowd differ");

  // Set-up: every replay constructed a service, spread over the run; a
  // few more constructions follow it.
  std::vector<double> setup_s = totals.setup_s;
  setup_s.push_back(warmup.setup_s);
  for (size_t i = 0; i < kExtraSetups; ++i) {
    const Clock::time_point start = Clock::now();
    ShardedAssignmentService service(&catalog.tasks, ServiceOptions(1));
    setup_s.push_back(SecondsBetween(start, Clock::now()));
  }

  // Medians over replays of each replay's figure; the tail is the median
  // over blocks of kMinRefreshes consecutive refreshes (ten beyond p99
  // each) of each block's p99.
  const double completions_per_s = Median(totals.completions_per_s);
  const double refresh_p50_ms = Median(totals.refresh_p50_s) * 1e3;
  const double refresh_p99_ms =
      MedianBlockQuantile(calls.refresh_s, kMinRefreshes, 0.99) * 1e3;
  const double register_p50_ms = Median(totals.register_p50_s) * 1e3;
  const double motivation_per_bundle = Ratio(
      quality.motivation_sum, static_cast<double>(quality.bundle_workers));
  const double tasks_per_session =
      Ratio(static_cast<double>(quality.completed_tasks),
            static_cast<double>(quality.sessions));
  const double setup = SetupSeconds(setup_s);

  report.detail = {
      {"completions_per_s", completions_per_s, "1/s"},
      {"refresh_p50_ms", refresh_p50_ms, "ms"},
      {"refresh_p99_ms", refresh_p99_ms, "ms"},
      {"register_p50_ms", register_p50_ms, "ms"},
      {"motivation_per_bundle", motivation_per_bundle, "motivation"},
      {"tasks_per_session", tasks_per_session, "tasks"},
      {"refreshes", static_cast<double>(calls.refresh_s.size()), "count"},
      {"registrations", static_cast<double>(calls.register_s.size()),
       "count"},
      {"replays", static_cast<double>(totals.replays), "count"},
      {"min_available_share", calls.min_available_share, "share"},
      {"timed_replay_s", totals.wall_s, "s"}};
  report.end_to_end = {{"throughput_per_s", completions_per_s, "1/s"},
                       {"wait_p50_ms", refresh_p50_ms, "ms"},
                       {"wait_tail_ms", refresh_p99_ms, "ms"},
                       {"second_p50_ms", register_p50_ms, "ms"},
                       {"gre_quality", motivation_per_bundle, "score"},
                       {"second_quality", tasks_per_session, "score"},
                       {"setup_s", setup, "s"}};

  if (config.trace) {
    AddEngineLayerMetrics(calls, totals, TimeCacheBuilds(catalog, 5), &report);
    // The solver layers at this workload's instance shape: a shard's
    // 300-task sample and its mean batch of due workers, solved serially
    // with the service's swap mode.
    const size_t batch = std::max<size_t>(
        1, static_cast<size_t>(std::lround(Ratio(
               static_cast<double>(totals.bundle_workers),
               static_cast<double>(totals.solver_iterations)))));
    const Crowd crowd = MakeCrowd(catalog, crowd_seed(0));
    const AssignmentServiceOptions options = ServiceOptions(1).service;
    HtaSolverOptions base;
    base.threads = options.solver_threads;
    base.swap = options.swap;
    Rng rng(MixSeed(config.seed, 7));
    SolverLayerSamples samples;
    for (size_t p = 0; p < kSolverProbes; ++p) {
      std::vector<Task> tasks;
      for (size_t pos : rng.SampleWithoutReplacement(
               catalog.size(), options.max_tasks_per_iteration)) {
        tasks.push_back(catalog.tasks[pos]);
      }
      std::vector<Worker> workers;
      for (size_t q = 0; q < batch; ++q) {
        workers.push_back(crowd.profiles[(p * batch + q) % crowd.profiles.size()]);
      }
      base.seed = MixSeed(config.seed, 200 + p);
      SampleSolverLayers(tasks, workers, options.xmax, base, p, spans,
                         &samples, &report);
    }
    AddSolverLayerMetrics(samples, &report);
    const double untraced_per_s = Median(plain_totals.completions_per_s);
    report.per_layer.push_back(
        {"trace.overhead_share", 1.0 - Ratio(completions_per_s, untraced_per_s),
         "share"});
    report.detail.push_back(
        {"untraced_completions_per_s", untraced_per_s, "1/s"});
  }
  report.Check(calls.refresh_s.size() >= kMinRefreshes,
               "fewer refreshes than the p99 needs");
  return report;
}

}  // namespace perfbench
