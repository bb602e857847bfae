#include "engine/sharded_service.h"

#include <algorithm>

#include "util/check.h"
#include "util/metrics.h"
#include "util/timer.h"

namespace hta {

namespace {

/// Front-end observability: per-call latency of the locked serving
/// entry points (lock wait + shard work), and rejected cross-shard
/// completions. Like EngineMetrics, handles live for the process
/// lifetime and every shard shares one series per name.
struct FrontEndMetrics {
  metrics::Histogram register_seconds{"sharded.register_seconds",
                                      metrics::LatencyBucketsSeconds()};
  metrics::Histogram notify_seconds{"sharded.notify_seconds",
                                    metrics::LatencyBucketsSeconds()};
  metrics::Counter cross_shard_rejections{"sharded.cross_shard_rejections"};
};

FrontEndMetrics& Fm() {
  static FrontEndMetrics* m = new FrontEndMetrics();
  return *m;
}

}  // namespace

ShardedAssignmentService::ShardedAssignmentService(
    const std::vector<Task>* catalog, ShardedServiceOptions options)
    : catalog_(catalog), options_(options) {
  // More shards than tasks would leave empty shards whose services own
  // an empty catalog; clamp instead (a 1-task catalog is 1 shard).
  const size_t num_shards = std::clamp<size_t>(
      options_.num_shards, 1, std::max<size_t>(1, catalog_->size()));
  options_.num_shards = num_shards;

  shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }

  if (num_shards == 1) {
    // Pass-through: the shard reads the caller's catalog and writes the
    // caller's event log directly, with untouched options — this *is*
    // a bare engine, wrapped in one mutex.
    shards_[0]->service =
        std::make_unique<AssignmentService>(catalog_, options_.service);
    return;
  }

  // Round-robin task partition: global index g -> shard g % S, local
  // index g / S. Task objects carry their stable ids with them, so
  // shard event logs and shard pools speak global task ids natively.
  for (size_t s = 0; s < num_shards; ++s) {
    shards_[s]->catalog.reserve(catalog_->size() / num_shards + 1);
  }
  for (size_t g = 0; g < catalog_->size(); ++g) {
    shards_[g % num_shards]->catalog.push_back((*catalog_)[g]);
  }

  for (size_t s = 0; s < num_shards; ++s) {
    Shard& shard = *shards_[s];
    AssignmentServiceOptions shard_options = options_.service;
    // Decorrelated but deterministic per-shard randomness.
    shard_options.seed = options_.service.seed ^ static_cast<uint64_t>(s);
    // Globally unique ids that encode the shard: s+1, s+1+S, s+1+2S...
    shard_options.worker_id_start = static_cast<uint64_t>(s) + 1;
    shard_options.worker_id_stride = static_cast<uint64_t>(num_shards);
    if (options_.service.event_log != nullptr) {
      shard.log = std::make_unique<EventLog>();
      shard_options.event_log = shard.log.get();
    }
    shard.service =
        std::make_unique<AssignmentService>(&shard.catalog, shard_options);
  }
}

size_t ShardedAssignmentService::ShardForInterests(
    const KeywordVector& interests) const {
  // FNV-1a over the universe size and the packed interest blocks,
  // byte-by-byte in little-endian order: stable across platforms and
  // independent of how the interests were constructed.
  uint64_t h = 14695981039346656037ull;
  const auto mix = [&h](uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffu;
      h *= 1099511628211ull;
    }
  };
  mix(static_cast<uint64_t>(interests.universe_size()));
  for (const uint64_t block : interests.blocks()) mix(block);
  return static_cast<size_t>(h % static_cast<uint64_t>(shards_.size()));
}

uint64_t ShardedAssignmentService::RegisterWorker(
    const KeywordVector& interests) {
  const size_t s = ShardForInterests(interests);
  Shard& shard = *shards_[s];
  WallTimer timer;
  uint64_t id;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    id = shard.service->RegisterWorker(interests);
  }
  Fm().register_seconds.Observe(timer.ElapsedSeconds());
  HTA_DCHECK_EQ(ShardOfWorker(id), s);
  return id;
}

std::vector<size_t> ShardedAssignmentService::Displayed(
    uint64_t worker_id) const {
  const size_t s = ShardOfWorker(worker_id);
  const Shard& shard = *shards_[s];
  std::vector<size_t> displayed;
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    displayed = shard.service->Displayed(worker_id);
  }
  for (size_t& index : displayed) index = GlobalTaskIndex(s, index);
  return displayed;
}

Status ShardedAssignmentService::NotifyCompleted(uint64_t worker_id,
                                                 size_t catalog_index) {
  const size_t s = ShardOfWorker(worker_id);
  if (ShardOfTask(catalog_index) != s) {
    // Without this guard the local-index mapping would silently alias
    // the completion onto an unrelated task inside the worker's shard.
    Fm().cross_shard_rejections.Add();
    return Status::FailedPrecondition(
        "task " + std::to_string(catalog_index) + " lives in shard " +
        std::to_string(ShardOfTask(catalog_index)) + ", not worker " +
        std::to_string(worker_id) + "'s shard " + std::to_string(s));
  }
  Shard& shard = *shards_[s];
  WallTimer timer;
  Status status = Status::OK();
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    status = shard.service->NotifyCompleted(worker_id,
                                            LocalTaskIndex(catalog_index));
  }
  Fm().notify_seconds.Observe(timer.ElapsedSeconds());
  return status;
}

void ShardedAssignmentService::Deregister(uint64_t worker_id) {
  Shard& shard = *shards_[ShardOfWorker(worker_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.service->Deregister(worker_id);
}

MotivationWeights ShardedAssignmentService::CurrentWeights(
    uint64_t worker_id) const {
  const Shard& shard = *shards_[ShardOfWorker(worker_id)];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.service->CurrentWeights(worker_id);
}

void ShardedAssignmentService::AdvanceClock(double minute) {
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    shard->service->AdvanceClock(minute);
  }
}

void ShardedAssignmentService::AdvanceShardClock(size_t shard_index,
                                                 double minute) {
  Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  shard.service->AdvanceClock(minute);
}

double ShardedAssignmentService::shard_clock_minutes(size_t shard_index) const {
  const Shard& shard = *shards_[shard_index];
  std::lock_guard<std::mutex> lock(shard.mu);
  return shard.service->clock_minutes();
}

size_t ShardedAssignmentService::iteration_count() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->service->iteration_count();
  }
  return total;
}

void ShardedAssignmentService::FlushEventLog() {
  EventLog* out = options_.service.event_log;
  if (out == nullptr || shards_.size() == 1) return;

  struct Tagged {
    LoggedEvent event;
    size_t shard = 0;
    size_t sequence = 0;  ///< Append order within the shard's log.
  };
  std::vector<Tagged> merged;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    std::lock_guard<std::mutex> lock(shard.mu);
    const std::vector<LoggedEvent>& events = shard.log->events();
    for (size_t i = shard.flushed; i < events.size(); ++i) {
      merged.push_back(Tagged{events[i], s, i});
    }
    shard.flushed = events.size();
  }

  // Deterministic global order: (minute, worker_id, shard, sequence).
  // Each worker lives in exactly one shard, so the (shard, sequence)
  // tie-break keeps every per-worker subsequence in its original
  // order, and the result is independent of driver-thread scheduling.
  std::sort(merged.begin(), merged.end(),
            [](const Tagged& a, const Tagged& b) {
              if (a.event.minute != b.event.minute) {
                return a.event.minute < b.event.minute;
              }
              if (a.event.worker_id != b.event.worker_id) {
                return a.event.worker_id < b.event.worker_id;
              }
              if (a.shard != b.shard) return a.shard < b.shard;
              return a.sequence < b.sequence;
            });

  for (Tagged& tagged : merged) {
    LoggedEvent& e = tagged.event;
    switch (e.kind) {
      case LoggedEvent::Kind::kDisplayed:
        out->RecordDisplayed(e.minute, e.worker_id, std::move(e.task_ids));
        break;
      case LoggedEvent::Kind::kCompleted:
        HTA_CHECK_EQ(e.task_ids.size(), size_t{1});
        out->RecordCompleted(e.minute, e.worker_id, e.task_ids.front());
        break;
      case LoggedEvent::Kind::kRegistered:
        out->RecordRegistered(e.minute, e.worker_id);
        break;
      case LoggedEvent::Kind::kDeregistered:
        out->RecordDeregistered(e.minute, e.worker_id);
        break;
    }
  }
}

}  // namespace hta
