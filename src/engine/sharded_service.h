#ifndef HTA_ENGINE_SHARDED_SERVICE_H_
#define HTA_ENGINE_SHARDED_SERVICE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/assignment_service.h"

namespace hta {

/// Configuration of the assignment service. `service` configures every
/// per-shard engine (seed, strategy, caches, ...); the shard count
/// defaults to 1.
struct ShardedServiceOptions {
  AssignmentServiceOptions service;
  /// Disjoint task shards. Clamped to [1, catalog size] at
  /// construction; 1 reproduces a bare engine bit-for-bit.
  size_t num_shards = 1;
};

/// The assignment service of Fig. 4 — the one serving surface every
/// deployment, tool and example drives.
///
/// One engine (AssignmentService) is single-threaded by design: it
/// serializes every registration, completion, and iteration, so it can
/// solve fast but can only *serve* on one core. The service partitions
/// the catalog into `num_shards` disjoint task shards — global index g
/// lives in shard g % S at local index g / S — and gives each shard a
/// full engine with its own TaskPool, CatalogCache, and RNG stream
/// (`seed ^ shard_id`). Sessions are routed to shards by a
/// deterministic FNV-1a hash of the worker's interest bits, and each
/// public entry point locks only the target shard's mutex, so traffic
/// on different shards proceeds truly concurrently. The default is one
/// shard.
///
/// Determinism contract (the repo-wide rule, extended to serving):
///
///  * `num_shards == 1` is *bit-identical* to a bare engine with the
///    same options: the shard shares the caller's catalog pointer and
///    event log, worker ids are the same dense 1, 2, ... stream, and
///    the seed is untouched (`seed ^ 0`).
///  * For any shard count, results do not depend on which threads
///    drive the shards or on HTA_THREADS: each shard's state evolves
///    only from its own calls (disjoint tasks, disjoint workers,
///    per-shard RNG), and cross-shard aggregation (event-log merge,
///    iteration totals) happens in fixed shard order after the fact.
///
/// Worker ids are globally unique and encode their shard without
/// coordination: shard s of S allocates s + 1, s + 1 + S, s + 1 + 2S,
/// ... so ShardOfWorker(id) = (id - 1) % S. Completions are validated
/// against this mapping — a task from another worker's shard is
/// rejected as FailedPrecondition rather than silently aliased through
/// the local-index mapping.
///
/// Event logs: with one shard the caller's `options.service.event_log`
/// is handed straight to the shard. With several, each shard records
/// into a private log (timestamps from its own shard clock) and
/// FlushEventLog() merges them into the caller's log in deterministic
/// (minute, worker_id, shard, sequence) order — workers live in exactly
/// one shard, so every per-worker subsequence is preserved verbatim.
class ShardedAssignmentService {
 public:
  ShardedAssignmentService(const std::vector<Task>* catalog,
                           ShardedServiceOptions options);

  /// --- Routing (pure functions of the construction-time shard count).
  size_t num_shards() const { return shards_.size(); }
  /// Deterministic FNV-1a hash of the interest bits, mod num_shards.
  size_t ShardForInterests(const KeywordVector& interests) const;
  size_t ShardOfWorker(uint64_t worker_id) const {
    return static_cast<size_t>((worker_id - 1) % shards_.size());
  }
  size_t ShardOfTask(size_t catalog_index) const {
    return catalog_index % shards_.size();
  }
  size_t LocalTaskIndex(size_t catalog_index) const {
    return catalog_index / shards_.size();
  }
  size_t GlobalTaskIndex(size_t shard, size_t local_index) const {
    return local_index * shards_.size() + shard;
  }

  /// --- Serving surface (thread-safe; each call locks exactly the
  /// target shard).
  uint64_t RegisterWorker(const KeywordVector& interests);
  /// Displayed bundle as *global* catalog indices.
  std::vector<size_t> Displayed(uint64_t worker_id) const;
  /// `catalog_index` is global; rejected (FailedPrecondition) when the
  /// task's shard is not the worker's shard.
  Status NotifyCompleted(uint64_t worker_id, size_t catalog_index);
  void Deregister(uint64_t worker_id);
  MotivationWeights CurrentWeights(uint64_t worker_id) const;

  /// Advances every shard clock (locks shards one at a time, in order).
  void AdvanceClock(double minute);
  /// Advances one shard's clock — the per-shard driver threads use this
  /// so independent shards never contend on a global clock.
  void AdvanceShardClock(size_t shard, double minute);
  double shard_clock_minutes(size_t shard) const;

  /// --- Aggregation / inspection. Sum and per-shard views; the
  /// reference accessor is for quiescent inspection (tests, benches) —
  /// it hands out the shard service without holding its lock.
  size_t iteration_count() const;
  const AssignmentService& shard(size_t s) const {
    return *shards_[s]->service;
  }
  const ShardedServiceOptions& options() const { return options_; }

  /// Merges per-shard event logs recorded since the last flush into the
  /// caller's `options.service.event_log` in deterministic
  /// (minute, worker_id, shard, sequence) order. No-op with one shard
  /// (the caller's log was written directly) or no caller log. Callers
  /// must be quiescent: a flush while shard clocks still advance could
  /// interleave a later flush's events before this one's.
  void FlushEventLog();

 private:
  struct Shard {
    mutable std::mutex mu;
    /// This shard's slice of the catalog (empty in single-shard
    /// pass-through mode, where the service reads the caller's
    /// catalog directly).
    std::vector<Task> catalog;
    /// Private event log (null in pass-through mode).
    std::unique_ptr<EventLog> log;
    /// How many of log's events earlier FlushEventLog calls consumed.
    size_t flushed = 0;
    std::unique_ptr<AssignmentService> service;
  };

  const std::vector<Task>* catalog_;
  ShardedServiceOptions options_;
  /// unique_ptr elements: Shard owns a mutex and is neither movable nor
  /// copyable once constructed.
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace hta

#endif  // HTA_ENGINE_SHARDED_SERVICE_H_
