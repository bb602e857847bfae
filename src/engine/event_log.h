#ifndef HTA_ENGINE_EVENT_LOG_H_
#define HTA_ENGINE_EVENT_LOG_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/distance.h"
#include "core/task.h"
#include "core/worker.h"
#include "util/result.h"

namespace hta {

/// An append-only record of what the platform did: bundles displayed
/// and tasks completed, in wall-clock order. This is the "observe
/// workers in task completion" trace of Section III made durable, so
/// that motivation estimates can be recomputed offline, audited, or
/// re-derived under a different metric.
struct LoggedEvent {
  enum class Kind : uint8_t {
    kDisplayed,    ///< A bundle was displayed to the worker.
    kCompleted,    ///< The worker completed one task.
    kRegistered,   ///< The worker's session began (no task ids).
    kDeregistered, ///< The worker's session ended (no task ids).
  };

  double minute = 0.0;
  uint64_t worker_id = 0;
  Kind kind = Kind::kDisplayed;
  /// Task *ids* (stable across catalog reloads): the displayed bundle,
  /// or a single completed task.
  std::vector<uint64_t> task_ids;
};

/// Append-only event log. Events must be appended in non-decreasing
/// time order (checked).
class EventLog {
 public:
  void RecordDisplayed(double minute, uint64_t worker_id,
                       std::vector<uint64_t> bundle_task_ids);
  void RecordCompleted(double minute, uint64_t worker_id, uint64_t task_id);
  void RecordRegistered(double minute, uint64_t worker_id);
  void RecordDeregistered(double minute, uint64_t worker_id);

  const std::vector<LoggedEvent>& events() const { return events_; }
  size_t size() const { return events_.size(); }
  bool empty() const { return events_.empty(); }

 private:
  void Append(LoggedEvent event);
  std::vector<LoggedEvent> events_;
};

/// Replays an event log through the Section III estimator and returns
/// the final (alpha, beta) estimate per worker. `workers` supplies the
/// interest vectors (matched by worker id; they must share the
/// catalog's keyword universe); tasks are resolved by id against
/// `catalog`, over a CatalogCache built for the replay. Fails on
/// unknown worker or task ids.
Result<std::unordered_map<uint64_t, MotivationWeights>> ReplayEstimates(
    const EventLog& log, const std::vector<Task>& catalog,
    const std::vector<Worker>& workers,
    DistanceKind kind = DistanceKind::kJaccard,
    MotivationWeights prior = MotivationWeights{0.5, 0.5});

}  // namespace hta

#endif  // HTA_ENGINE_EVENT_LOG_H_
