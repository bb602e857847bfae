#include "engine/event_log.h"

#include <string>

#include "engine/motivation_estimator.h"
#include "util/check.h"

namespace hta {

void EventLog::Append(LoggedEvent event) {
  HTA_CHECK(events_.empty() || event.minute >= events_.back().minute)
      << "event log must be appended in time order";
  events_.push_back(std::move(event));
}

void EventLog::RecordDisplayed(double minute, uint64_t worker_id,
                               std::vector<uint64_t> bundle_task_ids) {
  LoggedEvent event;
  event.minute = minute;
  event.worker_id = worker_id;
  event.kind = LoggedEvent::Kind::kDisplayed;
  event.task_ids = std::move(bundle_task_ids);
  Append(std::move(event));
}

void EventLog::RecordCompleted(double minute, uint64_t worker_id,
                               uint64_t task_id) {
  LoggedEvent event;
  event.minute = minute;
  event.worker_id = worker_id;
  event.kind = LoggedEvent::Kind::kCompleted;
  event.task_ids = {task_id};
  Append(std::move(event));
}

void EventLog::RecordRegistered(double minute, uint64_t worker_id) {
  LoggedEvent event;
  event.minute = minute;
  event.worker_id = worker_id;
  event.kind = LoggedEvent::Kind::kRegistered;
  Append(std::move(event));
}

void EventLog::RecordDeregistered(double minute, uint64_t worker_id) {
  LoggedEvent event;
  event.minute = minute;
  event.worker_id = worker_id;
  event.kind = LoggedEvent::Kind::kDeregistered;
  Append(std::move(event));
}

Result<std::unordered_map<uint64_t, MotivationWeights>> ReplayEstimates(
    const EventLog& log, const std::vector<Task>& catalog,
    const std::vector<Worker>& workers, DistanceKind kind,
    MotivationWeights prior) {
  std::unordered_map<uint64_t, size_t> task_index_by_id;
  for (size_t i = 0; i < catalog.size(); ++i) {
    task_index_by_id.emplace(catalog[i].id(), i);
  }
  std::unordered_map<uint64_t, const Worker*> worker_by_id;
  for (const Worker& w : workers) worker_by_id.emplace(w.id(), &w);

  const CatalogCache cache(&catalog, kind);
  MotivationEstimator estimator(&cache, prior);
  std::unordered_map<uint64_t, MotivationWeights> estimates;

  for (const LoggedEvent& event : log.events()) {
    auto worker_it = worker_by_id.find(event.worker_id);
    if (worker_it == worker_by_id.end()) {
      return Status::NotFound("event log references unknown worker " +
                              std::to_string(event.worker_id));
    }
    std::vector<size_t> indices;
    indices.reserve(event.task_ids.size());
    for (uint64_t id : event.task_ids) {
      auto task_it = task_index_by_id.find(id);
      if (task_it == task_index_by_id.end()) {
        return Status::NotFound("event log references unknown task " +
                                std::to_string(id));
      }
      indices.push_back(task_it->second);
    }
    switch (event.kind) {
      case LoggedEvent::Kind::kDisplayed:
        estimator.BeginBundle(event.worker_id, indices,
                              worker_it->second->interests());
        break;
      case LoggedEvent::Kind::kCompleted:
        HTA_CHECK_EQ(indices.size(), size_t{1});
        estimator.ObserveCompletion(event.worker_id, indices[0]);
        break;
      case LoggedEvent::Kind::kRegistered:
      case LoggedEvent::Kind::kDeregistered:
        // Session boundaries carry no estimator state; they are logged
        // for deployment timeline audits (and still validate the
        // worker id above).
        break;
    }
    estimates[event.worker_id] = estimator.Estimate(event.worker_id);
  }
  return estimates;
}

}  // namespace hta
