// Work-distribution contract of the chunked engine primitives: exact
// once-each coverage with deterministic chunk boundaries for
// `parallel_for_chunks`, and the chunked-claim accounting that fixed
// `parallel_for`'s shared-cursor serialization (one fetch_add per trial used
// to bound 8-thread speedup at ~1.4x for sub-microsecond bodies).
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/obs/obs.hpp"

namespace {

using namespace lore;

TEST(ParallelForChunks, CoversEveryIndexExactlyOnce) {
  for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                              std::size_t{65}, std::size_t{1000}}) {
    for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                                    std::size_t{4096}}) {
      for (const unsigned threads : {1u, 4u}) {
        std::vector<std::atomic<int>> hits(n);
        parallel_for_chunks(n, threads, chunk, [&](std::size_t begin, std::size_t end) {
          ASSERT_LT(begin, end);
          ASSERT_LE(end, n);
          ASSERT_LE(end - begin, chunk);
          // Chunk boundaries are deterministic multiples of `chunk`.
          ASSERT_EQ(begin % chunk, 0u);
          for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
        });
        for (std::size_t i = 0; i < n; ++i)
          ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " chunk=" << chunk
                                       << " threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST(ParallelForChunks, ZeroAndDegenerateInputs) {
  std::atomic<int> calls{0};
  parallel_for_chunks(0, 4, 64, [&](std::size_t, std::size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
  // chunk == 0 degrades to chunk == 1.
  std::vector<std::atomic<int>> hits(5);
  parallel_for_chunks(5, 2, 0, [&](std::size_t begin, std::size_t end) {
    ASSERT_EQ(end, begin + 1);
    hits[begin].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelForChunks, ChunkCounterCountsDispatchedChunks) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::set_enabled(true);
  auto& chunks = obs::MetricsRegistry::global().counter("parallel.chunks");
  for (const unsigned threads : {1u, 4u}) {
    chunks.reset();
    parallel_for_chunks(1000, threads, 64, [](std::size_t, std::size_t) {});
    EXPECT_EQ(chunks.value(), (1000u + 63u) / 64u) << "threads=" << threads;
  }
}

TEST(ParallelFor, ChunkedClaimingBoundsCursorTraffic) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::set_enabled(true);
  // 10000 trials on a 4-worker team: claim size is
  // clamp(10000 / (4*8), 1, 64) = 64, so the shared cursor is touched ~157
  // times instead of 10000 — the fix for the old one-index-per-fetch_add
  // serialization. The counter proves the claim batching actually happens.
  auto& claims = obs::MetricsRegistry::global().counter("parallel.claims");
  claims.reset();
  constexpr std::size_t kTrials = 10000;
  std::atomic<std::size_t> ran{0};
  parallel_for(kTrials, 4, [&](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
  EXPECT_EQ(ran.load(), kTrials);
  const std::uint64_t observed = claims.value();
  EXPECT_GE(observed, kTrials / 64) << "fewer claims than the work requires";
  // Every claim except at most one per worker serves a full 64 trials.
  EXPECT_LE(observed, kTrials / 64 + 4u) << "cursor traffic not batched";
}

TEST(ParallelFor, SmallBatchesStillClaimOneAtATime) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  obs::set_enabled(true);
  // n < team*8 resolves to claim size 1 — tail latency over throughput.
  auto& claims = obs::MetricsRegistry::global().counter("parallel.claims");
  claims.reset();
  parallel_for(8, 4, [](std::size_t) {});
  EXPECT_GE(claims.value(), 8u / 4u);
  EXPECT_LE(claims.value(), 8u + 4u);
}

// Each thread keeps its own sink: one shared variable written by every trial
// would measure that cache line's contention, not the cursor's.
thread_local volatile std::uint64_t tls_sink = 0;

TEST(ParallelFor, ScalesOnMultiCoreHosts) {
  // Scaling regression for the chunked claim counter: a sub-microsecond
  // synthetic body must not serialize on the cursor. Cursor contention shows
  // as extra CPU time (cache-line traffic on every claim), so the bound is on
  // process CPU time, which unlike a wall-clock speedup does not depend on
  // how many cores the host has free. The yardstick is the same 4 threads
  // running a fixed partition with no cursor at all, so what the host does
  // to 4 busy threads (shared physical cores, clock changes) cancels out:
  // parallel_for may spend at most 1.5x that CPU time. Observability is off
  // so only the cursor is measured, and each figure is the best of 5 runs.
  constexpr std::size_t kTrials = 1000000;
  constexpr unsigned kThreads = 4;
  const std::function<void(std::size_t)> body = [](std::size_t i) {
    std::uint64_t x = i;
    for (int k = 0; k < 40; ++k) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    tls_sink = x;
  };
  const auto cpu_seconds = [] {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto sec = [](const timeval& tv) {
      return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
    };
    return sec(usage.ru_utime) + sec(usage.ru_stime);
  };
  const auto cpu_of = [&](const auto& run) {
    const double start = cpu_seconds();
    run();
    return cpu_seconds() - start;
  };
  const auto run_cursor = [&] { parallel_for(kTrials, kThreads, body); };
  const auto run_fixed = [&] {
    std::vector<std::thread> team;
    for (std::size_t w = 0; w < kThreads; ++w)
      team.emplace_back([&, w] {
        for (std::size_t i = w * kTrials / kThreads; i < (w + 1) * kTrials / kThreads; ++i)
          body(i);
      });
    for (auto& t : team) t.join();
  };
  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  // Interleaved so a burst of load from the rest of the host (or of the test
  // suite running beside this test) hits both sides alike.
  double cursor = 1e9, fixed = 1e9;
  for (int rep = 0; rep < 5; ++rep) {
    cursor = std::min(cursor, cpu_of(run_cursor));
    fixed = std::min(fixed, cpu_of(run_fixed));
  }
  obs::set_enabled(was_enabled);
  EXPECT_LT(cursor, 1.5 * fixed) << "parallel_for CPU time " << cursor
                                 << " s vs fixed partition " << fixed
                                 << " s — cursor serialization?";
}

}  // namespace
