// Live event counts (ctest label `obs`, part of the TSan preset): the
// per-kind counts emit_event bumps while an Aggregator runs are exact under
// 8-producer contention and silent while it does not, and the LORE_OBS_EVENT
// macro honours both its compile-time and runtime gates.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "src/obs/obs.hpp"

namespace {

using namespace lore::obs;

// Producers hammer emit_event: while an Aggregator runs each call lands in
// the interval's per_kind exactly once; before start and after stop none does.
TEST(EventCounts, ConcurrentEmitsCountExactly) {
  if (!kCompiledIn) GTEST_SKIP() << "live pipeline compiled out (-DLORE_OBS=OFF)";
  constexpr unsigned kProducers = 8;
  constexpr std::uint64_t kPerProducer = 20000;
  constexpr auto kRetry = static_cast<std::size_t>(EventKind::kTrialRetry);
  const auto emit_all = [] {
    std::vector<std::thread> producers;
    for (unsigned p = 0; p < kProducers; ++p)
      producers.emplace_back([] {
        for (std::uint64_t i = 0; i < kPerProducer; ++i) emit_event(EventKind::kTrialRetry, i);
      });
    for (auto& t : producers) t.join();
  };

  AggregatorConfig cfg;
  cfg.interval = std::chrono::milliseconds(0);
  Aggregator agg(cfg);
  emit_all();  // not live yet: uncounted
  agg.start();
  emit_all();
  const IntervalStats live = agg.tick();
  agg.stop();
  EXPECT_EQ(live.per_kind[kRetry], kProducers * kPerProducer);
  EXPECT_EQ(live.events, kProducers * kPerProducer);

  emit_all();  // stopped: uncounted
  agg.start();
  const IntervalStats idle = agg.tick();
  agg.stop();
  EXPECT_EQ(idle.per_kind[kRetry], 0u);
}

// The LORE_OBS_EVENT macro honours both the compile-time switch and the
// runtime gate on live counting.
TEST(EventCounts, MacroRespectsCompileAndRuntimeGates) {
  constexpr auto kKind = static_cast<std::size_t>(EventKind::kCheckpointWritten);
  const std::uint64_t before = event_counts()[kKind];
  set_event_counting(true);
  LORE_OBS_EVENT(EventKind::kCheckpointWritten, 7, 1.5);
  set_event_counting(false);
  LORE_OBS_EVENT(EventKind::kCheckpointWritten, 8, 2.5);  // gate closed: uncounted
  EXPECT_EQ(event_counts()[kKind] - before, kCompiledIn ? 1u : 0u);
}

TEST(EventCounts, KindNamesCoverSchema) {
  std::set<std::string> names;
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    const char* name = event_kind_name(static_cast<EventKind>(k));
    EXPECT_STRNE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate kind name " << name;
  }
}

}  // namespace
