#include "sim/crowd_sim.h"

#include "util/check.h"

namespace hta {

size_t SessionResult::questions_total() const {
  size_t total = 0;
  for (const auto& e : events) total += static_cast<size_t>(e.questions);
  return total;
}

size_t SessionResult::questions_correct() const {
  size_t total = 0;
  for (const auto& e : events) total += static_cast<size_t>(e.correct);
  return total;
}

SessionResult RunSession(ShardedAssignmentService* service,
                         const Catalog& catalog, BehavioralWorker* worker,
                         const SessionConfig& config) {
  HTA_CHECK(service != nullptr);
  HTA_CHECK(worker != nullptr);

  SessionResult session;
  const uint64_t worker_id =
      service->RegisterWorker(worker->profile().interests());
  session.worker_id = worker_id;
  // Sessions share one service; its audit clock is deployment-global
  // while `minutes` below is session-relative. Registration does not
  // move the clock, so reading the origin after it is the arrival time.
  const size_t shard = service->ShardOfWorker(worker_id);
  const double clock_origin = service->shard_clock_minutes(shard);

  double minutes = 0.0;
  while (minutes < config.max_minutes) {
    const std::vector<size_t> displayed = service->Displayed(worker_id);
    if (displayed.empty()) break;  // Platform ran out of tasks.

    const size_t chosen = worker->ChooseTask(displayed);
    const double spent_minutes =
        worker->CompletionSeconds(chosen, displayed) / 60.0;
    if (minutes + spent_minutes > config.max_minutes) {
      // The allotted time expires mid-task; the task is not submitted
      // (workers must submit the HIT before the deadline).
      minutes = config.max_minutes;
      break;
    }
    minutes += spent_minutes;
    service->AdvanceClock(clock_origin + minutes);

    CompletionEvent event;
    event.session_minute = minutes;
    event.wall_minute = clock_origin + minutes;
    event.worker_id = worker_id;
    event.catalog_task = chosen;
    event.questions = static_cast<int>(catalog.questions_per_task[chosen]);
    for (int q = 0; q < event.questions; ++q) {
      if (worker->AnswerQuestionCorrectly(chosen)) ++event.correct;
    }
    worker->RecordCompletion(chosen);
    session.events.push_back(event);

    HTA_CHECK(service->NotifyCompleted(worker_id, chosen).ok());

    if (worker->DecidesToLeave()) {
      session.left_voluntarily = true;
      break;
    }
  }

  // `minutes` already equals the cap when the allotted time expired;
  // it is smaller when the worker left or the platform ran dry.
  session.duration_minutes = minutes;
  session.arrival_minute = clock_origin;
  // The session ends at the last completion's clock; the cap-expiry
  // sentinel above does not advance the service clock (no event was
  // submitted at the deadline).
  session.ended_minute = service->shard_clock_minutes(shard);
  service->Deregister(worker_id);
  return session;
}

}  // namespace hta
