#ifndef HTA_UTIL_PARALLEL_H_
#define HTA_UTIL_PARALLEL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace hta {

/// Deterministic data-parallel primitives over a lazily-initialized
/// global thread pool.
///
/// Pool size comes from the HTA_THREADS environment variable, read once
/// at first use: unset, 0, or negative means std::hardware_concurrency;
/// HTA_THREADS=1 forces fully serial execution (no worker threads are
/// ever started).
///
/// Determinism contract: work is split into fixed blocks whose
/// boundaries depend only on (begin, end, grain) — never on the thread
/// count — and ParallelReduce combines per-block partials in ascending
/// block order on the calling thread. A ParallelFor body that writes
/// only to disjoint, index-derived locations, and a ParallelReduce with
/// a pure map, therefore produce bit-identical results for every
/// HTA_THREADS setting (including 1) and every `max_threads` cap.

namespace parallel_internal {

struct BlockRange {
  size_t begin;
  size_t end;
};

/// Number of blocks in the fixed partition of [begin, end) into runs of
/// `grain` consecutive indices (the last block may be short). grain == 0
/// is treated as 1.
inline size_t BlockCount(size_t begin, size_t end, size_t grain) {
  if (end <= begin) return 0;
  if (grain == 0) grain = 1;
  return (end - begin + grain - 1) / grain;
}

/// The half-open index range of block `block` in that partition.
inline BlockRange BlockAt(size_t begin, size_t end, size_t grain,
                          size_t block) {
  if (grain == 0) grain = 1;
  const size_t b = begin + block * grain;
  const size_t remaining = end - b;
  return BlockRange{b, remaining > grain ? b + grain : end};
}

}  // namespace parallel_internal

/// A fixed-size pool of worker threads executing one blocked job at a
/// time. Construct directly for tests; production code goes through
/// Global() + ParallelFor/ParallelReduce.
class ThreadPool {
 public:
  /// A pool with `threads` total execution slots (the calling thread
  /// counts as one, so `threads - 1` workers are started; threads <= 1
  /// starts none and every Run executes inline).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, created on first use with a size from
  /// HTA_THREADS (see GetHtaThreads in util/env.h).
  static ThreadPool& Global();

  /// Threads that can run blocks concurrently (workers + caller).
  size_t thread_count() const { return workers_.size() + 1; }

  /// Runs `block_fn(b)` for every b in [0, num_blocks), claiming blocks
  /// from a shared counter; the calling thread participates. At most
  /// `max_threads` threads take part (0 = all). The first exception
  /// thrown by any block is rethrown on the calling thread after the
  /// job drains (remaining unstarted blocks are skipped). Calls from
  /// inside a running block execute serially inline, so nesting cannot
  /// deadlock.
  void Run(size_t num_blocks, const std::function<void(size_t)>& block_fn,
           size_t max_threads = 0);

 private:
  struct Job;

  void WorkerLoop();
  static void ProcessBlocks(Job& job);

  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // Workers wait here for a job.
  std::condition_variable done_cv_;  // The caller waits here for drain.
  std::mutex run_mu_;                // Serializes concurrent Run calls.
  Job* job_ = nullptr;               // Guarded by mu_.
  uint64_t job_seq_ = 0;             // Guarded by mu_.
  bool shutdown_ = false;            // Guarded by mu_.
};

/// Applies `fn` to every index in [begin, end), split into blocks of
/// `grain` indices executed across the global pool. `fn` is invoked
/// either per index (`fn(i)`) or per block (`fn(block_begin,
/// block_end)`), whichever it accepts; the block form amortizes
/// dispatch for tight loops. `max_threads` caps the threads used by
/// this call (0 = pool size, 1 = serial inline).
template <typename Fn>
void ParallelFor(size_t begin, size_t end, size_t grain, Fn&& fn,
                 size_t max_threads = 0) {
  const size_t num_blocks = parallel_internal::BlockCount(begin, end, grain);
  if (num_blocks == 0) return;
  ThreadPool::Global().Run(
      num_blocks,
      [&](size_t block) {
        const parallel_internal::BlockRange r =
            parallel_internal::BlockAt(begin, end, grain, block);
        if constexpr (std::is_invocable_v<Fn&, size_t, size_t>) {
          fn(r.begin, r.end);
        } else {
          for (size_t i = r.begin; i < r.end; ++i) fn(i);
        }
      },
      max_threads);
}

/// Blocked reduction over [begin, end): `map(block_begin, block_end)`
/// produces one partial per fixed block (computed in parallel), and the
/// partials are folded as reduce(acc, partial) in ascending block order
/// starting from `init` on the calling thread. Because the partition
/// depends only on (begin, end, grain), the result — including
/// floating-point rounding — is identical for every thread count.
template <typename T, typename MapFn, typename ReduceFn>
T ParallelReduce(size_t begin, size_t end, size_t grain, T init, MapFn&& map,
                 ReduceFn&& reduce, size_t max_threads = 0) {
  const size_t num_blocks = parallel_internal::BlockCount(begin, end, grain);
  if (num_blocks == 0) return init;
  std::vector<T> partials(num_blocks);
  ThreadPool::Global().Run(
      num_blocks,
      [&](size_t block) {
        const parallel_internal::BlockRange r =
            parallel_internal::BlockAt(begin, end, grain, block);
        partials[block] = map(r.begin, r.end);
      },
      max_threads);
  T acc = std::move(init);
  for (size_t block = 0; block < num_blocks; ++block) {
    acc = reduce(std::move(acc), std::move(partials[block]));
  }
  return acc;
}

}  // namespace hta

#endif  // HTA_UTIL_PARALLEL_H_
