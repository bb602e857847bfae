#ifndef HTA_SIM_DEPLOYMENT_LOOP_H_
#define HTA_SIM_DEPLOYMENT_LOOP_H_

#include <algorithm>
#include <queue>
#include <vector>

#include "sim/concurrent_deployment.h"
#include "sim/crowd_sim.h"
#include "util/check.h"
#include "util/metrics.h"

namespace hta {
namespace sim_internal {

/// Deployment observability: event-queue shape and session churn.
/// Counters are per-event and thus deterministic for a given seed
/// (striped, exact under concurrent driver threads); gauges are exact
/// when one loop runs, last-write-wins when sharded loops interleave.
struct DeploymentMetrics {
  metrics::Counter arrivals{"deployment.arrivals"};
  metrics::Counter expirations{"deployment.expirations"};
  metrics::Counter events_processed{"deployment.events_processed"};
  metrics::Gauge queue_depth{"deployment.queue_depth"};
  metrics::Gauge concurrent_sessions{"deployment.concurrent_sessions"};
};

/// The process-wide instance (defined in concurrent_deployment.cc).
DeploymentMetrics& Dm();

enum class EventKind { kArrival, kTaskDone, kSessionExpired };

struct Event {
  double minute;
  size_t run_index;  ///< Index into this loop's local runs, not a slot.
  EventKind kind;
  uint64_t sequence;  // Tie-break for deterministic ordering.
};

struct EventLater {
  bool operator()(const Event& a, const Event& b) const {
    if (a.minute != b.minute) return a.minute > b.minute;
    return a.sequence > b.sequence;
  }
};

struct WorkerRun {
  uint64_t service_id = 0;
  double arrival_minute = 0.0;
  double busy_until = 0.0;
  size_t current_task = 0;
  bool active = false;
  SessionResult session;
};

/// Aggregates of one event loop: wall-clock horizon and the peak
/// simultaneous sessions *within this loop's slot subset*.
struct LoopStats {
  double deployment_minutes = 0.0;
  size_t peak_concurrent = 0;
};

/// The discrete-event loop that steps every simulated session:
/// RunConcurrentDeployment runs it once per shard over Poisson
/// arrivals, RunSequentialDeployment once per slot with the slot
/// arriving at its shard's clock. `Service` is anything with the
/// serving surface: AdvanceClock(double), RegisterWorker(interests) -> id,
/// Displayed(id) -> catalog indices, NotifyCompleted(id, index) ->
/// Status, Deregister(id), clock_minutes(). `slots` selects which
/// workers this loop simulates (indices into *workers / *sessions);
/// `arrival_minutes` is indexed by slot and pre-computed by the caller
/// so every shard consumes the one canonical arrival stream. Results
/// land in (*sessions)[slot] — disjoint slot subsets make concurrent
/// loops write disjoint elements.
template <typename Service>
LoopStats RunDeploymentLoop(Service* service, const Catalog& catalog,
                            std::vector<BehavioralWorker>* workers,
                            const std::vector<size_t>& slots,
                            const std::vector<double>& arrival_minutes,
                            const SessionConfig& session_config,
                            std::vector<SessionResult>* sessions) {
  LoopStats stats;
  if (slots.empty()) return stats;

  std::priority_queue<Event, std::vector<Event>, EventLater> queue;
  std::vector<WorkerRun> runs(slots.size());
  uint64_t sequence = 0;

  for (size_t i = 0; i < slots.size(); ++i) {
    runs[i].arrival_minute = arrival_minutes[slots[i]];
    queue.push(Event{runs[i].arrival_minute, i, EventKind::kArrival,
                     sequence++});
  }

  size_t concurrent = 0;

  // Ends the session at `minute` after `duration` minutes and frees the
  // worker's slot. Every caller has already advanced the service clock
  // to `minute`, so Deregister (and its audit-log record) lands at the
  // same service time as the recorded session end. Expiry passes the
  // cap itself: (arrival + cap) - arrival can round below the cap.
  auto end_session = [&](size_t run_index, double minute, double duration,
                         bool voluntary) {
    HTA_DCHECK_EQ(minute, service->clock_minutes());
    WorkerRun& run = runs[run_index];
    if (!run.active) return;
    run.active = false;
    run.session.worker_id = run.service_id;
    run.session.left_voluntarily = voluntary;
    run.session.arrival_minute = run.arrival_minute;
    run.session.ended_minute = minute;
    run.session.duration_minutes = duration;
    service->Deregister(run.service_id);
    (*sessions)[slots[run_index]] = run.session;
    stats.deployment_minutes = std::max(stats.deployment_minutes, minute);
    --concurrent;
    Dm().concurrent_sessions.Set(static_cast<int64_t>(concurrent));
  };

  // Picks the next task for the worker and schedules its completion.
  // If nothing is displayed the session ends now; if the session cap
  // would be crossed mid-task the task is not submitted and the worker
  // idles out their HIT — the already-queued kSessionExpired event
  // ends the session at the cap, once the service clock has actually
  // advanced there. (Ending it here used to Deregister at a service
  // clock earlier than the recorded session end.)
  auto schedule_next = [&](size_t run_index, double minute) {
    WorkerRun& run = runs[run_index];
    BehavioralWorker& worker = (*workers)[slots[run_index]];
    const std::vector<size_t> displayed = service->Displayed(run.service_id);
    if (displayed.empty()) {
      end_session(run_index, minute, minute - run.arrival_minute,
                  /*voluntary=*/false);
      return;
    }
    const size_t chosen = worker.ChooseTask(displayed);
    const double spent = worker.CompletionSeconds(chosen, displayed) / 60.0;
    const double done_at = minute + spent;
    if (done_at - run.arrival_minute > session_config.max_minutes) {
      return;  // Allotted time expires mid-task; wait for expiry event.
    }
    run.current_task = chosen;
    run.busy_until = done_at;
    queue.push(Event{done_at, run_index, EventKind::kTaskDone, sequence++});
  };

  while (!queue.empty()) {
    const Event event = queue.top();
    queue.pop();
    Dm().events_processed.Add();
    Dm().queue_depth.Set(static_cast<int64_t>(queue.size()));
    WorkerRun& run = runs[event.run_index];
    BehavioralWorker& worker = (*workers)[slots[event.run_index]];

    switch (event.kind) {
      case EventKind::kArrival: {
        service->AdvanceClock(event.minute);
        Dm().arrivals.Add();
        run.service_id =
            service->RegisterWorker(worker.profile().interests());
        run.active = true;
        ++concurrent;
        stats.peak_concurrent = std::max(stats.peak_concurrent, concurrent);
        Dm().concurrent_sessions.Set(static_cast<int64_t>(concurrent));
        // The session's hard deadline is fixed at arrival; processing
        // expiry as a queued event keeps Deregister on the same
        // non-decreasing service clock as every other transition.
        queue.push(Event{event.minute + session_config.max_minutes,
                         event.run_index, EventKind::kSessionExpired,
                         sequence++});
        schedule_next(event.run_index, event.minute);
        break;
      }
      case EventKind::kSessionExpired: {
        if (!run.active) break;
        service->AdvanceClock(event.minute);
        Dm().expirations.Add();
        end_session(event.run_index, event.minute,
                    session_config.max_minutes, /*voluntary=*/false);
        break;
      }
      case EventKind::kTaskDone: {
        if (!run.active) break;
        service->AdvanceClock(event.minute);
        const size_t task = run.current_task;
        CompletionEvent completion;
        completion.session_minute = event.minute - run.arrival_minute;
        completion.wall_minute = event.minute;
        completion.worker_id = run.service_id;
        completion.catalog_task = task;
        completion.questions =
            static_cast<int>(catalog.questions_per_task[task]);
        for (int q = 0; q < completion.questions; ++q) {
          if (worker.AnswerQuestionCorrectly(task)) ++completion.correct;
        }
        worker.RecordCompletion(task);
        run.session.events.push_back(completion);
        HTA_CHECK(service->NotifyCompleted(run.service_id, task).ok());
        if (worker.DecidesToLeave()) {
          end_session(event.run_index, event.minute,
                      event.minute - run.arrival_minute, /*voluntary=*/true);
        } else {
          schedule_next(event.run_index, event.minute);
        }
        break;
      }
    }
  }

  return stats;
}

}  // namespace sim_internal
}  // namespace hta

#endif  // HTA_SIM_DEPLOYMENT_LOOP_H_
