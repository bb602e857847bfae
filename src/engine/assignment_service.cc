#include "engine/assignment_service.h"

#include <algorithm>
#include <optional>

#include "assign/auditor.h"
#include "util/env.h"
#include "util/metrics.h"
#include "util/timer.h"
#include "util/trace.h"

namespace hta {

namespace {

/// Engine-level observability: iteration counters plus pool/session
/// gauges. The service is single-threaded by contract, so the gauges'
/// last-write-wins semantics are exact.
struct EngineMetrics {
  metrics::Counter iterations{"engine.iterations"};
  metrics::Counter workers_assigned{"engine.workers_assigned"};
  metrics::Counter solver_tasks{"engine.solver_tasks"};
  metrics::Counter completions{"engine.completions"};
  metrics::Counter registrations{"engine.registrations"};
  metrics::Counter deregistrations{"engine.deregistrations"};
  metrics::Counter warm_seeded{"engine.warm_start.seeded"};
  metrics::Counter warm_carried_tasks{"engine.warm_start.carried_tasks"};
  metrics::Counter warm_repaired_slots{"engine.warm_start.repaired_slots"};
  metrics::Counter warm_cold_fallbacks{"engine.warm_start.cold_fallbacks"};
  metrics::Gauge pool_available{"engine.pool_available"};
  metrics::Gauge active_sessions{"engine.active_sessions"};
  metrics::Histogram setup_seconds{"engine.setup_seconds",
                                   metrics::LatencyBucketsSeconds()};
  metrics::Histogram solve_seconds{"engine.solve_seconds",
                                   metrics::LatencyBucketsSeconds()};
};

EngineMetrics& Em() {
  static EngineMetrics* m = new EngineMetrics();
  return *m;
}

}  // namespace

AssignmentService::AssignmentService(const std::vector<Task>* catalog,
                                     AssignmentServiceOptions options)
    : catalog_(catalog),
      options_(options),
      pool_(catalog),
      warm_cache_(std::make_unique<CatalogCache>(catalog, options.metric)),
      estimator_(warm_cache_.get(), options.prior),
      rng_(options.seed),
      next_worker_id_(options.worker_id_start) {
  HTA_CHECK(options_.worker_id_stride > 0) << "worker_id_stride must be >= 1";
  HTA_CHECK(catalog != nullptr);
  HTA_CHECK_GE(options_.xmax, size_t{1});
  options_.warm_start =
      GetEnvIntOr("HTA_WARM_START", options_.warm_start ? 1 : 0) != 0;
}

uint64_t AssignmentService::RegisterWorker(const KeywordVector& interests) {
  // The relevance kernels only DCHECK the universe, so a vector from
  // another keyword space would read out of bounds in the first solve.
  HTA_CHECK_EQ(interests.universe_size(), warm_cache_->packed().universe_size())
      << "worker interests must share the catalog's keyword universe";
  const uint64_t id = next_worker_id_;
  next_worker_id_ += options_.worker_id_stride;
  sessions_.emplace(id, Session(Worker(id, interests, options_.prior)));
  ++active_sessions_;
  Em().registrations.Add();
  Em().active_sessions.Set(static_cast<int64_t>(active_sessions_));
  if (options_.event_log != nullptr) {
    options_.event_log->RecordRegistered(clock_minutes_, id);
  }
  RunIteration({id});
  return id;
}

std::vector<size_t> AssignmentService::Displayed(uint64_t worker_id) const {
  auto it = sessions_.find(worker_id);
  if (it == sessions_.end()) return {};
  std::vector<size_t> out;
  out.reserve(it->second.displayed_live);
  for (size_t t : it->second.displayed) {
    if (t != kNoTask) out.push_back(t);
  }
  return out;
}

Status AssignmentService::NotifyCompleted(uint64_t worker_id,
                                          size_t catalog_index) {
  auto it = sessions_.find(worker_id);
  if (it == sessions_.end() || !it->second.active) {
    return Status::NotFound("unknown or inactive worker " +
                            std::to_string(worker_id));
  }
  Session& session = it->second;
  if (session.granted.find(catalog_index) == session.granted.end()) {
    return Status::FailedPrecondition(
        "task " + std::to_string(catalog_index) +
        " was never displayed to worker " + std::to_string(worker_id));
  }
  HTA_RETURN_IF_ERROR(pool_.MarkCompleted(catalog_index));
  Em().completions.Add();
  if (options_.event_log != nullptr) {
    options_.event_log->RecordCompleted(clock_minutes_, worker_id,
                                        (*catalog_)[catalog_index].id());
  }
  estimator_.ObserveCompletion(worker_id, catalog_index);
  session.worker.set_weights(estimator_.Estimate(worker_id));
  auto pos = session.displayed_pos.find(catalog_index);
  if (pos != session.displayed_pos.end()) {
    session.displayed[pos->second] = kNoTask;
    session.displayed_pos.erase(pos);
    --session.displayed_live;
  }
  ++session.completions_since_refresh;

  if (session.completions_since_refresh >=
          options_.refresh_after_completions ||
      session.displayed_live == 0) {
    session.needs_refresh = true;
    due_.insert(worker_id);
  }
  if (session.needs_refresh && pool_.available_count() > 0) {
    // Batch due workers until the configured pool size is reached (the
    // W^i sets of Problem 1); a worker with an exhausted display forces
    // the iteration so nobody stalls. `due_` tracks exactly the
    // active/needs_refresh sessions, already in ascending id order.
    bool urgent = false;
    for (uint64_t id : due_) {
      if (sessions_.at(id).displayed_live == 0) {
        urgent = true;
        break;
      }
    }
    if (urgent || due_.size() >= options_.min_batch_workers) {
      RunIteration(std::vector<uint64_t>(due_.begin(), due_.end()));
    }
  }
  return Status::OK();
}

void AssignmentService::Deregister(uint64_t worker_id) {
  auto it = sessions_.find(worker_id);
  if (it == sessions_.end()) return;
  Session& session = it->second;
  if (session.active) {
    session.active = false;
    --active_sessions_;
    Em().deregistrations.Add();
    Em().active_sessions.Set(static_cast<int64_t>(active_sessions_));
    if (options_.event_log != nullptr) {
      options_.event_log->RecordDeregistered(clock_minutes_, worker_id);
    }
  }
  due_.erase(worker_id);
  if (options_.recycle_on_leave) {
    for (size_t t : session.displayed) {
      if (t == kNoTask) continue;
      // Displayed tasks are in Assigned state by construction.
      HTA_CHECK(pool_.Release(t).ok());
    }
  }
  session.displayed.clear();
  session.displayed_pos.clear();
  session.displayed_live = 0;
  session.last_bundle.clear();
}

MotivationWeights AssignmentService::CurrentWeights(uint64_t worker_id) const {
  return estimator_.Estimate(worker_id);
}

void AssignmentService::AdvanceClock(double minute) {
  HTA_CHECK_GE(minute, clock_minutes_);
  clock_minutes_ = minute;
}

std::vector<size_t> AssignmentService::DrawRandomAvailable(size_t count) {
  const size_t take = std::min(count, pool_.available_count());
  std::vector<size_t> picked_positions =
      rng_.SampleWithoutReplacement(pool_.available_count(), take);
  std::vector<size_t> out;
  out.reserve(take);
  // Resolve every rank against the same availability snapshot before
  // marking anything: ranks refer to the pre-draw available set.
  for (size_t pos : picked_positions) {
    out.push_back(pool_.SelectAvailable(pos));
  }
  for (size_t t : out) {
    HTA_CHECK(pool_.MarkAssigned(t).ok());
  }
  return out;
}

void AssignmentService::Display(Session* session, std::vector<size_t> bundle) {
  // Remember the optimized bundle before the extras dilute it: its
  // surviving members seed the worker's next warm-started iteration.
  session->last_bundle = bundle;
  // Paper setup: the displayed set is the optimized bundle plus a few
  // random tasks to avoid relevance silos.
  std::vector<size_t> extras = DrawRandomAvailable(options_.extra_random_tasks);
  bundle.insert(bundle.end(), extras.begin(), extras.end());
  session->displayed = std::move(bundle);
  session->displayed_pos.clear();
  for (size_t i = 0; i < session->displayed.size(); ++i) {
    session->displayed_pos.emplace(session->displayed[i], i);
  }
  session->displayed_live = session->displayed.size();
  for (size_t t : session->displayed) session->granted.insert(t);
  session->completions_since_refresh = 0;
  session->needs_refresh = false;
  due_.erase(session->worker.id());
  if (options_.event_log != nullptr) {
    std::vector<uint64_t> task_ids;
    task_ids.reserve(session->displayed.size());
    for (size_t t : session->displayed) {
      task_ids.push_back((*catalog_)[t].id());
    }
    options_.event_log->RecordDisplayed(clock_minutes_, session->worker.id(),
                                        std::move(task_ids));
  }
  estimator_.BeginBundle(session->worker.id(), session->displayed,
                         session->worker.interests());
}

void AssignmentService::RunIteration(const std::vector<uint64_t>& worker_ids) {
  if (worker_ids.empty() || pool_.available_count() == 0) return;
  trace::PhaseSpan iteration_span("engine.iteration");
  WallTimer timer;

  // Cold adaptive workers get a random bundle (the paper's cold-start
  // handling for HTA-GRE); everyone else goes through the strategy.
  std::vector<uint64_t> solve_ids;
  size_t assigned_workers = 0;
  for (uint64_t id : worker_ids) {
    Session& session = sessions_.at(id);
    if (!session.active) continue;
    const bool cold_start =
        options_.strategy == StrategyKind::kHtaGre && session.cold;
    if (cold_start) {
      Display(&session, DrawRandomAvailable(options_.xmax));
      session.cold = false;
      ++assigned_workers;
    } else {
      solve_ids.push_back(id);
    }
  }

  double motivation = 0.0;
  size_t solver_task_count = 0;
  double setup_seconds = 0.0;
  bool warm_seeded = false;
  size_t carried_tasks = 0;
  size_t repaired_slots = 0;
  if (!solve_ids.empty() && pool_.available_count() > 0) {
    // Build the iteration-local instance: a sample of available tasks
    // plus the due workers with their current weight estimates. The
    // task list lives in a member scratch buffer reused across
    // iterations.
    std::vector<size_t>& available = scratch_available_;
    available.clear();
    if (pool_.available_count() > options_.max_tasks_per_iteration) {
      std::vector<size_t> positions = rng_.SampleWithoutReplacement(
          pool_.available_count(), options_.max_tasks_per_iteration);
      std::sort(positions.begin(), positions.end());
      available.reserve(positions.size());
      for (size_t pos : positions) {
        available.push_back(pool_.SelectAvailable(pos));
      }
    } else {
      pool_.AvailableIndicesInto(&available);
    }
    const size_t fresh_count = available.size();
    std::vector<Worker> local_workers;
    local_workers.reserve(solve_ids.size());
    for (uint64_t id : solve_ids) {
      const Session& session = sessions_.at(id);
      local_workers.emplace_back(id, session.worker.interests(),
                                 estimator_.Estimate(id));
    }

    // Carry-over seed (warm start): each due worker keeps the surviving
    // members of their previous optimized bundle — still displayed,
    // hence still kAssigned and theirs. Survivors join the instance
    // after the fresh sample (they are disjoint from it: the sample is
    // kAvailable), and the seed assignment hands each worker their own
    // survivors; completed and departed tasks/workers have already
    // dropped out of the displays. No survivors at all → cold fallback.
    Assignment seed;
    if (options_.warm_start && options_.strategy == StrategyKind::kHtaGre) {
      trace::PhaseSpan seed_span("engine.warm_seed");
      seed.bundles.resize(solve_ids.size());
      for (size_t q = 0; q < solve_ids.size(); ++q) {
        const Session& session = sessions_.at(solve_ids[q]);
        for (size_t t : session.last_bundle) {
          if (session.displayed_pos.find(t) == session.displayed_pos.end()) {
            continue;  // Completed (or re-randomized) since last display.
          }
          seed.bundles[q].push_back(static_cast<TaskIndex>(available.size()));
          available.push_back(t);
          ++carried_tasks;
        }
      }
      warm_seeded = carried_tasks > 0;
      if (!warm_seeded) Em().warm_cold_fallbacks.Add();
    }

    // The instance is a zero-copy view over the shared catalog cache
    // (kDice deployments rely on allow_non_metric, matching the
    // estimator's unconditional use of the configured kind).
    WallTimer setup_timer;
    std::optional<trace::PhaseSpan> setup_span;
    setup_span.emplace("engine.setup", &Em().setup_seconds);
    const CatalogSubsetView view(warm_cache_.get(),
                                 std::vector<size_t>(available));
    auto problem = HtaProblem::CreateFromSubset(
        &view, &local_workers, options_.xmax, /*allow_non_metric=*/true,
        options_.solver_threads);
    setup_span.reset();
    HTA_CHECK(problem.ok()) << problem.status();
    setup_seconds = setup_timer.ElapsedSeconds();
    std::optional<trace::PhaseSpan> solve_span;
    solve_span.emplace("engine.solve", &Em().solve_seconds);
    auto solved = [&]() -> Result<HtaSolveResult> {
      if (warm_seeded) {
        LocalSearchOptions ls_options;
        ls_options.threads = options_.solver_threads;
        return SolveHtaWarmStart(*problem, seed, ls_options);
      }
      return SolveWithStrategy(*problem, options_.strategy,
                               options_.seed + iterations_.size(), &rng_,
                               options_.swap, options_.solver_threads);
    }();
    solve_span.reset();
    HTA_CHECK(solved.ok()) << solved.status();
    if (warm_seeded) {
      repaired_slots = solved->stats.warm_repaired_slots;
      Em().warm_seeded.Add();
      Em().warm_carried_tasks.Add(carried_tasks);
      Em().warm_repaired_slots.Add(repaired_slots);
    }
    if (AuditEnabled()) {
      // Every strategy (HTA and baselines alike) must hand the engine a
      // feasible assignment whose reported objective survives a
      // from-scratch recompute; a violation here would corrupt the task
      // pool below, so it is fatal rather than recoverable.
      const Status audit = AssignmentAuditor(*problem).Audit(
          solved->assignment, solved->stats.motivation);
      HTA_CHECK(audit.ok()) << audit;
    }
    motivation = solved->stats.motivation;
    solver_task_count = available.size();

    // Mark every solved bundle before drawing any random extras, so an
    // extra drawn for one worker cannot collide with a task the solver
    // granted to another. Carried survivors (locals past the fresh
    // sample) are already kAssigned and skip the pool transition; a
    // survivor the refinement dropped simply stays assigned-and-hidden,
    // exactly like an uncompleted task abandoned by a cold refresh.
    std::vector<std::vector<size_t>> bundles(solve_ids.size());
    for (size_t q = 0; q < solve_ids.size(); ++q) {
      bundles[q].reserve(solved->assignment.bundles[q].size());
      for (TaskIndex local : solved->assignment.bundles[q]) {
        const size_t catalog_index = available[local];
        if (static_cast<size_t>(local) < fresh_count) {
          HTA_CHECK(pool_.MarkAssigned(catalog_index).ok());
        }
        bundles[q].push_back(catalog_index);
      }
    }
    for (size_t q = 0; q < solve_ids.size(); ++q) {
      Session& session = sessions_.at(solve_ids[q]);
      Display(&session, std::move(bundles[q]));
      session.cold = false;
      ++assigned_workers;
    }
  }

  IterationRecord record;
  record.iteration = iterations_.size() + 1;
  record.worker_count = assigned_workers;
  record.task_count = solver_task_count;
  record.solve_seconds = timer.ElapsedSeconds();
  record.setup_seconds = setup_seconds;
  record.motivation = motivation;
  record.warm_seeded = warm_seeded;
  record.carried_tasks = carried_tasks;
  record.repaired_slots = repaired_slots;
  iterations_.push_back(record);
  Em().iterations.Add();
  Em().workers_assigned.Add(assigned_workers);
  Em().solver_tasks.Add(solver_task_count);
  Em().pool_available.Set(static_cast<int64_t>(pool_.available_count()));
}

}  // namespace hta
