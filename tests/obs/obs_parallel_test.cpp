// Thread-safety and determinism of the observability subsystem under the
// `parallel` ctest label (and the TSan preset): concurrent registration and
// updates from many threads, plus the acceptance check that campaign
// counters are bit-identical for every thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "src/arch/fault.hpp"
#include "src/arch/workloads.hpp"
#include "src/circuit/characterize.hpp"
#include "src/circuit/liberty.hpp"
#include "src/common/parallel.hpp"
#include "src/obs/obs.hpp"

namespace {

using namespace lore;

TEST(ObsParallel, ConcurrentCounterUpdatesAreExact) {
  obs::MetricsRegistry reg;
  constexpr unsigned kThreads = 8;
  constexpr std::uint64_t kPerThread = 20000;
  std::vector<std::thread> team;
  for (unsigned t = 0; t < kThreads; ++t)
    team.emplace_back([&reg] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) reg.counter("hits").add();
    });
  for (auto& t : team) t.join();
  EXPECT_EQ(reg.counter("hits").value(), kThreads * kPerThread);
}

TEST(ObsParallel, ConcurrentRegistrationReturnsOneInstrument) {
  obs::MetricsRegistry reg;
  constexpr unsigned kThreads = 8;
  std::vector<obs::Counter*> seen(kThreads, nullptr);
  std::vector<std::thread> team;
  for (unsigned t = 0; t < kThreads; ++t)
    team.emplace_back([&reg, &seen, t] {
      // Same 32 names from every thread: the registry must converge on one
      // instrument per name with no torn insertions.
      for (int k = 0; k < 32; ++k)
        reg.counter("shared." + std::to_string(k)).add();
      seen[t] = &reg.counter("shared.0");
    });
  for (auto& t : team) t.join();
  for (unsigned t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t], seen[0]);
  EXPECT_EQ(reg.counter("shared.0").value(), kThreads);
}

TEST(ObsParallel, ConcurrentHistogramObservationsAllLand) {
  obs::MetricsRegistry reg;
  auto& hist = reg.histogram("lat", obs::Histogram::linear_bounds(0.0, 100.0, 11));
  constexpr unsigned kThreads = 8;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> team;
  for (unsigned t = 0; t < kThreads; ++t)
    team.emplace_back([&hist, t] {
      for (int i = 0; i < kPerThread; ++i)
        hist.observe(static_cast<double>((t * 13 + i) % 100));
    });
  for (auto& t : team) t.join();
  EXPECT_EQ(hist.count(), kThreads * static_cast<std::uint64_t>(kPerThread));
  std::uint64_t bucket_total = 0;
  for (auto c : hist.bucket_counts()) bucket_total += c;
  EXPECT_EQ(bucket_total, hist.count());
}

TEST(ObsParallel, ConcurrentSpansKeepPerThreadNesting) {
  auto& rec = obs::TraceRecorder::global();
  const bool was = rec.recording();
  rec.clear();
  rec.set_enabled(true);
  constexpr unsigned kThreads = 4;
  std::vector<std::thread> team;
  for (unsigned t = 0; t < kThreads; ++t)
    team.emplace_back([] {
      for (int i = 0; i < 50; ++i) {
        obs::Span outer("outer");
        obs::Span inner("inner");
        EXPECT_EQ(obs::Span::current_depth(), 2u);
      }
    });
  for (auto& t : team) t.join();
  EXPECT_EQ(rec.event_count(), kThreads * 50u * 2u);
  for (const auto& e : rec.events())
    EXPECT_EQ(e.depth, e.name == "outer" ? 0u : 1u);
  rec.clear();
  rec.set_enabled(was);
}

// parallel_for samples the latency of every 16th trial by index; each strand
// batches its samples into the shared histogram when it ends. Either way the
// histogram holds exactly ceil(n / 16) observations, at any team size.
TEST(ObsParallel, ParallelForSamplesEverySixteenthTrialLatency) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "instrumentation compiled out";
  const bool was = obs::enabled();
  obs::set_enabled(true);
  auto& reg = obs::MetricsRegistry::global();
  constexpr std::size_t kTrials = 1001;
  for (const unsigned threads : {1u, 4u}) {
    reg.reset();
    std::atomic<std::size_t> ran{0};
    parallel_for(kTrials, threads,
                 [&ran](std::size_t) { ran.fetch_add(1, std::memory_order_relaxed); });
    EXPECT_EQ(ran.load(), kTrials);
    EXPECT_EQ(reg.histogram("parallel.trial_latency_us").count(), (kTrials + 15) / 16)
        << threads << " threads";
  }
  reg.reset();
  obs::set_enabled(was);
}

/// Snapshot of just the campaign counters after a fresh campaign run.
std::vector<std::pair<std::string, std::uint64_t>> campaign_counters(
    const arch::FaultInjector& injector, unsigned threads) {
  auto& reg = obs::MetricsRegistry::global();
  reg.reset();
  (void)injector.campaign(600, arch::FaultTarget::kRegister, /*base_seed=*/77, threads);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  for (const auto& [name, value] : reg.snapshot().counters)
    if (name.rfind("campaign.", 0) == 0) out.emplace_back(name, value);
  return out;
}

// Acceptance criterion: instrumentation counters (trial + outcome counts)
// are bit-identical across 1/2/4/8 worker threads.
TEST(ObsParallel, CampaignCountersThreadCountInvariant) {
  const bool was = obs::enabled();
  obs::set_enabled(true);
  const auto w = arch::make_checksum(10, 4);
  const arch::FaultInjector injector(w);
  const auto reference = campaign_counters(injector, 1);
  ASSERT_FALSE(reference.empty());
  std::uint64_t total_outcomes = 0;
  for (const auto& [name, value] : reference)
    if (name.find(".outcome.") != std::string::npos) total_outcomes += value;
  EXPECT_EQ(total_outcomes, 600u);
  for (unsigned threads : {2u, 4u, 8u})
    EXPECT_EQ(campaign_counters(injector, threads), reference) << threads << " threads";
  obs::MetricsRegistry::global().reset();
  obs::set_enabled(was);
}

// Acceptance criterion for the live pipeline: campaign counters stay
// bit-identical with the full pipeline — event ring enabled, a fast
// Aggregator draining it, and the exposition server bound — running
// alongside, at 1, 4, and hardware_concurrency threads.
TEST(ObsParallel, CampaignCountersPipelineOnOffInvariant) {
  if (!obs::kCompiledIn) GTEST_SKIP() << "live pipeline compiled out";
  const bool was = obs::enabled();
  obs::set_enabled(true);
  const auto w = arch::make_checksum(10, 4);
  const arch::FaultInjector injector(w);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  for (const unsigned threads : {1u, 4u, hw}) {
    const auto reference = campaign_counters(injector, threads);
    ASSERT_FALSE(reference.empty());
    obs::Pipeline pipeline;
    obs::PipelineConfig cfg;
    cfg.port = 0;  // ephemeral: a real socket is listening during the run
    cfg.aggregator.interval = std::chrono::milliseconds(5);
    ASSERT_TRUE(pipeline.start(cfg));
    const auto live = campaign_counters(injector, threads);
    pipeline.stop();
    EXPECT_EQ(live, reference) << threads << " threads";
  }
  obs::MetricsRegistry::global().reset();
  obs::set_enabled(was);
}

// Same invariance for the characterizer's evaluation counter (the former
// bespoke atomic, now a registry counter shared through the metrics API).
TEST(ObsParallel, CharacterizeEvaluationsThreadCountInvariant) {
  const circuit::CharacterizerConfig grid{.slew_axis_ps = {10.0, 40.0},
                                          .load_axis_ff = {2.0, 8.0},
                                          .timestep_ps = 0.5};
  circuit::Characterizer characterizer(grid, device::SelfHeatingModel{});
  auto run = [&](unsigned threads) {
    auto lib = circuit::make_skeleton_library("obs");
    characterizer.reset_evaluations();
    characterizer.characterize_library(lib, device::OperatingPoint{}, threads);
    return characterizer.evaluations();
  };
  const auto serial = run(1);
  EXPECT_GT(serial, 0u);
  for (unsigned threads : {2u, 4u, 8u}) EXPECT_EQ(run(threads), serial);
}

}  // namespace
