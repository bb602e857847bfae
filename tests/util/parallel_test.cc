#include "util/parallel.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "util/env.h"
#include "util/rng.h"

namespace hta {
namespace {

// The global pool reads HTA_THREADS once, at first use. Force a
// multi-threaded pool for this whole binary (before main runs) so the
// worker-thread code paths are actually exercised even on single-core
// CI machines; serial behavior is covered via max_threads = 1, which
// takes the same inline path as an HTA_THREADS=1 pool.
const bool kForcePoolSize = [] {
  setenv("HTA_THREADS", "4", /*overwrite=*/0);
  return true;
}();

using parallel_internal::BlockAt;
using parallel_internal::BlockCount;

TEST(BlockPartitionTest, CountsAndRangesTileTheInterval) {
  EXPECT_EQ(BlockCount(0, 10, 3), 4u);
  EXPECT_EQ(BlockCount(0, 9, 3), 3u);
  EXPECT_EQ(BlockCount(5, 5, 3), 0u);
  EXPECT_EQ(BlockCount(7, 5, 3), 0u);  // Empty (end < begin).
  EXPECT_EQ(BlockCount(0, 1, 100), 1u);
  // grain 0 behaves as grain 1.
  EXPECT_EQ(BlockCount(0, 4, 0), 4u);

  size_t expected_begin = 2;
  const size_t blocks = BlockCount(2, 13, 4);
  ASSERT_EQ(blocks, 3u);
  for (size_t b = 0; b < blocks; ++b) {
    const auto r = BlockAt(2, 13, 4, b);
    EXPECT_EQ(r.begin, expected_begin);
    EXPECT_LE(r.end, 13u);
    EXPECT_LT(r.begin, r.end);
    expected_begin = r.end;
  }
  EXPECT_EQ(expected_begin, 13u);
}

TEST(ParallelForTest, PerIndexFormCoversEveryIndexExactlyOnce) {
  ASSERT_TRUE(kForcePoolSize);
  constexpr size_t kRange = 10000;
  std::vector<std::atomic<int>> hits(kRange);
  ParallelFor(0, kRange, 64, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kRange; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, BlockFormCoversEveryIndexExactlyOnce) {
  constexpr size_t kRange = 5000;
  std::vector<std::atomic<int>> hits(kRange);
  ParallelFor(0, kRange, 37, [&](size_t begin, size_t end) {
    ASSERT_LT(begin, end);
    for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (size_t i = 0; i < kRange; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ParallelForTest, NonZeroBeginIsRespected) {
  std::vector<int> hits(20, 0);
  ParallelFor(5, 17, 4, [&](size_t i) { hits[i] += 1; }, /*max_threads=*/1);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i], i >= 5 && i < 17 ? 1 : 0) << "index " << i;
  }
}

TEST(ParallelForTest, GrainEdgeCases) {
  // Empty range: fn never runs.
  bool ran = false;
  ParallelFor(3, 3, 8, [&](size_t) { ran = true; });
  ParallelFor(9, 3, 8, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);

  // Grain larger than the range: one block, executed inline.
  std::vector<int> hits(6, 0);
  ParallelFor(0, 6, 100, [&](size_t i) { hits[i] += 1; });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), 6);

  // Grain 0 is treated as grain 1.
  std::atomic<int> count{0};
  ParallelFor(0, 8, 0, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 8);
}

TEST(ParallelForTest, SerialCapMatchesParallelExecution) {
  constexpr size_t kRange = 4096;
  std::vector<uint64_t> serial(kRange), parallel(kRange);
  auto body = [](size_t i) { return i * 2654435761u + 17; };
  ParallelFor(0, kRange, 128, [&](size_t i) { serial[i] = body(i); },
              /*max_threads=*/1);
  ParallelFor(0, kRange, 128, [&](size_t i) { parallel[i] = body(i); });
  EXPECT_EQ(serial, parallel);
}

TEST(ParallelForTest, ExceptionPropagatesAndPoolSurvives) {
  EXPECT_THROW(
      ParallelFor(0, 1000, 8,
                  [&](size_t i) {
                    if (i == 437) throw std::runtime_error("boom");
                  }),
      std::runtime_error);

  // The pool must remain fully usable after a failed job.
  std::atomic<int> count{0};
  ParallelFor(0, 256, 8, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 256);
}

TEST(ParallelForTest, NestedCallsRunInline) {
  constexpr size_t kOuter = 32;
  constexpr size_t kInner = 64;
  std::vector<std::atomic<int>> hits(kOuter * kInner);
  ParallelFor(0, kOuter, 1, [&](size_t i) {
    ParallelFor(0, kInner, 8,
                [&](size_t j) { hits[i * kInner + j].fetch_add(1); });
  });
  for (size_t i = 0; i < hits.size(); ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "slot " << i;
  }
}

TEST(ParallelReduceTest, SumsFullRangeFromInit) {
  const double sum = ParallelReduce(
      1, 1001, 64, 0.5,
      [](size_t begin, size_t end) {
        double s = 0.0;
        for (size_t i = begin; i < end; ++i) s += static_cast<double>(i);
        return s;
      },
      [](double acc, double partial) { return acc + partial; });
  EXPECT_DOUBLE_EQ(sum, 0.5 + 1000.0 * 1001.0 / 2.0);
}

TEST(ParallelReduceTest, EmptyRangeReturnsInit) {
  const int value = ParallelReduce(
      4, 4, 8, 77, [](size_t, size_t) { return 1; },
      [](int acc, int partial) { return acc + partial; });
  EXPECT_EQ(value, 77);
}

TEST(ParallelReduceTest, BitIdenticalAcrossThreadCaps) {
  // Floating-point partials round differently under different
  // association; the fixed block partition must make every thread cap
  // produce the same bits.
  Rng rng(123);
  std::vector<double> data(10007);
  for (double& v : data) v = rng.NextDouble() * 2.0 - 1.0;
  auto reduce_with = [&](size_t max_threads) {
    return ParallelReduce(
        0, data.size(), 97, 0.0,
        [&](size_t begin, size_t end) {
          double s = 0.0;
          for (size_t i = begin; i < end; ++i) s += data[i] * data[i];
          return s;
        },
        [](double acc, double partial) { return acc + partial; },
        max_threads);
  };
  const double serial = reduce_with(1);
  EXPECT_EQ(serial, reduce_with(0));
  EXPECT_EQ(serial, reduce_with(2));
  EXPECT_EQ(serial, reduce_with(3));
}

TEST(ThreadPoolTest, ThreadCountMatchesConstruction) {
  ThreadPool serial(1);
  EXPECT_EQ(serial.thread_count(), 1u);
  ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  // Zero behaves like one (the caller always participates).
  ThreadPool zero(0);
  EXPECT_EQ(zero.thread_count(), 1u);
}

TEST(ThreadPoolTest, RunExecutesEveryBlockOnDedicatedPools) {
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{5}}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(257);
    pool.Run(hits.size(), [&](size_t b) { hits[b].fetch_add(1); });
    for (size_t b = 0; b < hits.size(); ++b) {
      ASSERT_EQ(hits[b].load(), 1)
          << "block " << b << " with " << threads << " threads";
    }
  }
}

TEST(ThreadPoolTest, GlobalPoolHonorsHtaThreadsEnv) {
  // kForcePoolSize guaranteed HTA_THREADS was set before first use
  // (without clobbering an externally supplied value).
  const int requested = GetHtaThreads();
  ASSERT_GT(requested, 0);
  EXPECT_EQ(ThreadPool::Global().thread_count(),
            static_cast<size_t>(requested));
}

}  // namespace
}  // namespace hta
