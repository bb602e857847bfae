#ifndef HTA_ENGINE_ASSIGNMENT_SERVICE_H_
#define HTA_ENGINE_ASSIGNMENT_SERVICE_H_

#include <cstdint>
#include <memory>
#include <set>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "assign/baselines.h"
#include "core/catalog_cache.h"
#include "engine/event_log.h"
#include "engine/motivation_estimator.h"
#include "engine/task_pool.h"
#include "util/rng.h"

namespace hta {

/// Configuration of the crowdsourcing assignment service (Fig. 4).
/// Defaults mirror the paper's online deployment: Xmax = 15 optimized
/// tasks plus 5 random tasks displayed per worker.
struct AssignmentServiceOptions {
  StrategyKind strategy = StrategyKind::kHtaGre;
  DistanceKind metric = DistanceKind::kJaccard;
  size_t xmax = 15;
  /// Random tasks displayed alongside the optimized bundle, "to avoid
  /// falling into a silo" (Section V-C).
  size_t extra_random_tasks = 5;
  /// A worker's bundle is re-assigned after this many completions (the
  /// service's iteration trigger) — or earlier if they exhaust it.
  size_t refresh_after_completions = 5;
  /// Due workers are batched until this many need re-assignment, then
  /// one HTA solve serves them all (the W^i sets of Problem 1). A
  /// worker whose display is exhausted forces the batch immediately.
  /// 1 = re-assign as soon as anyone is due.
  size_t min_batch_workers = 1;
  /// Tasks per HTA solve are sampled down to this bound; real catalogs
  /// (the paper's CrowdFlower set has 158,018 tasks) are far larger
  /// than one iteration can meaningfully consider.
  size_t max_tasks_per_iteration = 300;
  /// If true, a departing worker's unfinished tasks return to the pool;
  /// if false (paper behavior) assigned tasks stay dropped.
  bool recycle_on_leave = false;
  /// Pair-swap variant used inside the strategy solve. The deployment
  /// defaults to the derandomized best-of-two step: handing a worker a
  /// strictly better bundle is always preferable online (the random
  /// swap exists for the offline expectation analysis).
  SwapMode swap = SwapMode::kBestOfTwo;
  /// Prior (alpha, beta) before any observation.
  MotivationWeights prior{0.5, 0.5};
  /// Optional audit log (not owned; must outlive the service). When
  /// set, every displayed bundle and completion is recorded with the
  /// service clock, enabling offline replay via ReplayEstimates.
  EventLog* event_log = nullptr;
  /// Cross-iteration warm start (off by default): when a due worker's
  /// previous optimized bundle still has surviving (displayed,
  /// uncompleted) tasks, the iteration's instance is the fresh sample
  /// plus those survivors, and the solve skips matching/LSAP entirely —
  /// local search starts from the carried bundles, patches holes from
  /// the sample (insert pass), and refines. Applies only to the
  /// adaptive kHtaGre strategy; iterations with no survivors run the
  /// full solve (counted as engine.warm_start.cold_fallbacks). Changes
  /// assignments (objective empirically no worse; every seed and result
  /// is auditor-checked under HTA_AUDIT=1) — off, every iteration runs
  /// the full solve. The HTA_WARM_START environment variable
  /// overrides in both directions.
  bool warm_start = false;
  /// Thread cap handed to every strategy solve (0 = full HTA_THREADS
  /// pool, 1 = serial). Any cap yields bit-identical assignments.
  size_t solver_threads = 0;
  /// Worker-id allocation: ids are worker_id_start, start + stride,
  /// start + 2·stride, ... The defaults (1, 1) preserve the historic
  /// dense numbering; a sharded front-end gives shard s of S the
  /// stream (s + 1, stride S) so ids are globally unique and encode
  /// their shard without any cross-shard coordination.
  uint64_t worker_id_start = 1;
  uint64_t worker_id_stride = 1;
  uint64_t seed = 42;
};

/// Per-iteration diagnostics.
struct IterationRecord {
  size_t iteration = 0;
  size_t worker_count = 0;   ///< Workers (re)assigned in this iteration.
  size_t task_count = 0;     ///< Tasks offered to the solver.
  double solve_seconds = 0.0;
  /// Problem-construction time within solve_seconds: building the
  /// solver instance's zero-copy subset view and sweeping its relevance
  /// table. Availability sampling is excluded.
  double setup_seconds = 0.0;
  double motivation = 0.0;   ///< Objective value of the solved instance.
  /// Warm-start diagnostics: whether this iteration's solve was seeded
  /// from carried-over bundles, how many surviving tasks it carried,
  /// and how many bundle holes the repair (insert pass) patched from
  /// the fresh sample. All zero on cold iterations.
  bool warm_seeded = false;
  size_t carried_tasks = 0;
  size_t repaired_slots = 0;
};

/// Declaration-only remnant of the deleted per-session relevance rows:
/// perfbench/serve.cc still reads `session_relevance()->bytes_used()`.
class SessionRelevanceCache {
 public:
  size_t bytes_used() const { return 0; }
};

/// The platform workflow of Fig. 4: workers register, receive displayed
/// task sets, and notify completions; the service observes completions,
/// re-estimates (alpha, beta), and re-runs the configured assignment
/// strategy when a worker's trigger fires.
///
/// Single-threaded by design: the discrete-event simulator (and any
/// real deployment loop) serializes calls.
class AssignmentService {
 public:
  AssignmentService(const std::vector<Task>* catalog,
                    AssignmentServiceOptions options);

  /// A new worker arrives (Fig. 4 "New w"); returns their id and
  /// performs the first assignment (random cold-start bundle for the
  /// adaptive strategy, strategy solve otherwise). `interests` must
  /// share the catalog's keyword universe (CHECKed).
  uint64_t RegisterWorker(const KeywordVector& interests);

  /// Tasks currently displayed to the worker (catalog indices,
  /// completed ones removed).
  std::vector<size_t> Displayed(uint64_t worker_id) const;

  /// The worker completed `catalog_index` (Fig. 4 "Notify t completed
  /// by w"). Updates the pool and the motivation estimate, and
  /// re-assigns when the refresh trigger fires.
  Status NotifyCompleted(uint64_t worker_id, size_t catalog_index);

  /// The worker's session ended.
  void Deregister(uint64_t worker_id);

  /// Current (alpha, beta) estimate for a worker.
  MotivationWeights CurrentWeights(uint64_t worker_id) const;

  /// Advances the service clock (used only to timestamp the audit
  /// log). Must be non-decreasing.
  void AdvanceClock(double minute);

  /// Current service clock in minutes.
  double clock_minutes() const { return clock_minutes_; }

  size_t iteration_count() const { return iterations_.size(); }
  const std::vector<IterationRecord>& iterations() const {
    return iterations_;
  }
  const TaskPool& pool() const { return pool_; }
  const AssignmentServiceOptions& options() const { return options_; }

  /// The service's catalog cache. Never null.
  const CatalogCache* warm_cache() const { return warm_cache_.get(); }

  /// Always nullptr; kept only because perfbench/serve.cc calls it.
  const SessionRelevanceCache* session_relevance() const { return nullptr; }

 private:
  /// Tombstone marking a completed slot of a session's display list.
  static constexpr size_t kNoTask = static_cast<size_t>(-1);

  struct Session {
    explicit Session(Worker w) : worker(std::move(w)) {}

    Worker worker;
    /// Catalog indices in display order; completed entries become
    /// kNoTask tombstones so removal is O(1) via displayed_pos.
    std::vector<size_t> displayed;
    /// catalog index -> slot in `displayed` for live entries.
    std::unordered_map<size_t, size_t> displayed_pos;
    size_t displayed_live = 0;  ///< Non-tombstone entries.
    size_t completions_since_refresh = 0;
    bool active = true;
    bool cold = true;           // No strategy-solved bundle yet.
    bool needs_refresh = false; // Due for the next batched iteration.
    /// Every task ever displayed to this worker. A batched iteration
    /// can replace the display while a task is in flight; submissions
    /// of previously granted (still assigned) tasks are accepted.
    std::unordered_set<size_t> granted;
    /// The optimized bundle of the most recent Display (catalog
    /// indices, random extras excluded). Its members still present in
    /// displayed_pos are the warm-start survivors carried into the
    /// worker's next iteration.
    std::vector<size_t> last_bundle;
  };

  /// Re-assigns bundles to the given (active) workers.
  void RunIteration(const std::vector<uint64_t>& worker_ids);

  /// Draws up to `count` random available tasks and marks them assigned.
  std::vector<size_t> DrawRandomAvailable(size_t count);

  void Display(Session* session, std::vector<size_t> bundle);

  const std::vector<Task>* catalog_;
  AssignmentServiceOptions options_;
  TaskPool pool_;
  /// Warm per-catalog cache (the packed catalog rows), built once per
  /// service and shared by every iteration and the estimator.
  std::unique_ptr<CatalogCache> warm_cache_;
  MotivationEstimator estimator_;
  Rng rng_;
  /// Scratch for the per-iteration instance task list (the sampled or
  /// full available set, plus carried survivors under warm start) —
  /// reused across iterations instead of materializing a fresh vector.
  std::vector<size_t> scratch_available_;
  uint64_t next_worker_id_;
  double clock_minutes_ = 0.0;
  size_t active_sessions_ = 0;
  std::unordered_map<uint64_t, Session> sessions_;
  /// Active workers with needs_refresh set — the batch candidates of
  /// the next iteration, kept sorted so the due scan is O(|due|)
  /// instead of a full sessions_ sweep per completion.
  std::set<uint64_t> due_;
  std::vector<IterationRecord> iterations_;
};

}  // namespace hta

#endif  // HTA_ENGINE_ASSIGNMENT_SERVICE_H_
