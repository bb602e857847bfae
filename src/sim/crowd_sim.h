#ifndef HTA_SIM_CROWD_SIM_H_
#define HTA_SIM_CROWD_SIM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace hta {

/// One completed task within a session.
struct CompletionEvent {
  /// Completion time relative to the session's start. Session-local
  /// analyses (dropout curves, time-in-HIT binning) read this field.
  double session_minute = 0.0;
  /// Completion time on the service's wall clock — the deployment-
  /// global, non-decreasing timeline. This (not session_minute) is the
  /// timestamp that matches the service's audit EventLog, whose append
  /// contract requires non-decreasing minutes across *all* workers.
  double wall_minute = 0.0;
  uint64_t worker_id = 0;    ///< Service-assigned worker id.
  size_t catalog_task = 0;
  int questions = 0;
  int correct = 0;
};

/// One worker's work session (one HIT in the paper's deployment).
struct SessionResult {
  uint64_t worker_id = 0;
  double duration_minutes = 0.0;
  /// Deployment wall-clock bounds of the session. `ended_minute` is the
  /// service-clock time Deregister ran at (arrival + duration, exactly
  /// arrival + max_minutes for a session that hit the cap); back-to-back
  /// sessions arrive at the service clock the previous one ended at.
  double arrival_minute = 0.0;
  double ended_minute = 0.0;
  bool left_voluntarily = false;  ///< false = hit the session time cap.
  std::vector<CompletionEvent> events;

  size_t tasks_completed() const { return events.size(); }
  size_t questions_total() const;
  size_t questions_correct() const;
};

/// Session limits (the paper's HITs allot 30 minutes).
struct SessionConfig {
  double max_minutes = 30.0;
};

}  // namespace hta

#endif  // HTA_SIM_CROWD_SIM_H_
