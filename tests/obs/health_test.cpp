// Self-monitoring health loop (DESIGN.md §10): EWMA detector unit behavior,
// HealthMonitor threshold/recovery state machine, and the end-to-end
// acceptance scenario — a campaign with injected hung trials drives the
// Aggregator's timeout-rate symptom, degrades the health state, and raises a
// `kAlert` event that the next interval counts.
#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "src/common/campaign.hpp"
#include "src/obs/obs.hpp"

namespace {

using namespace lore::obs;

TEST(EwmaDetector, WarmupNeverAlerts) {
  EwmaDetector d(0.3, 3.0, 3);
  EXPECT_FALSE(d.update(1.0));
  EXPECT_FALSE(d.update(1000.0));  // wild, but still warming up
  EXPECT_FALSE(d.update(-500.0));
  EXPECT_TRUE(d.warmed_up());
}

TEST(EwmaDetector, FlagsSpikeAfterStableHistory) {
  EwmaDetector d(0.3, 4.0, 3);
  for (int i = 0; i < 20; ++i) EXPECT_FALSE(d.update(100.0 + (i % 2)));
  EXPECT_TRUE(d.update(500.0));   // far outside the k-sigma band
  EXPECT_FALSE(d.update(100.0));  // back to normal
}

TEST(EwmaDetector, SustainedShiftBecomesTheNewNormal) {
  EwmaDetector d(0.3, 4.0, 3);
  for (int i = 0; i < 10; ++i) d.update(10.0);
  EXPECT_TRUE(d.update(100.0));
  int flagged = 0;
  for (int i = 0; i < 30; ++i) flagged += d.update(100.0) ? 1 : 0;
  // The estimates chase the shift, so the tail of the plateau is clean.
  EXPECT_FALSE(d.update(100.0));
  EXPECT_LT(flagged, 30);
  EXPECT_NEAR(d.mean(), 100.0, 1.0);
}

TEST(EwmaDetector, ResetForgetsHistory) {
  EwmaDetector d(0.3, 4.0, 2);
  for (int i = 0; i < 10; ++i) d.update(50.0);
  d.reset();
  EXPECT_EQ(d.samples(), 0u);
  EXPECT_FALSE(d.warmed_up());
  EXPECT_FALSE(d.update(1e6));  // warming up again
}

HealthSample busy_sample(std::uint64_t seq, double rate, double timeout_rate = 0.0,
                         double queue_depth = 0.0) {
  HealthSample s;
  s.interval_seq = seq;
  s.dt_s = 0.5;
  s.trials_attempted = 100;
  s.trials_per_s = rate;
  s.timeout_rate = timeout_rate;
  s.queue_depth = queue_depth;
  return s;
}

TEST(HealthMonitor, TimeoutRateIsAnAbsoluteSymptom) {
  HealthMonitor mon;  // default threshold 0.10
  EXPECT_TRUE(mon.update(busy_sample(0, 100.0, 0.05)).empty());
  const auto alerts = mon.update(busy_sample(1, 100.0, 0.5));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].signal, "health.timeout_rate");
  EXPECT_DOUBLE_EQ(alerts[0].value, 0.5);
  EXPECT_EQ(mon.state(), HealthState::kDegraded);
}

TEST(HealthMonitor, IdleIntervalsNeverAlert) {
  HealthMonitor mon;
  HealthSample idle;
  idle.dt_s = 0.5;  // nothing attempted: finished campaign, not a collapse
  for (std::uint64_t i = 0; i < 10; ++i)
    EXPECT_TRUE(mon.update(idle).empty()) << "interval " << i;
  EXPECT_EQ(mon.state(), HealthState::kOk);
}

TEST(HealthMonitor, ThroughputCollapseIsRelative) {
  HealthConfig cfg;
  cfg.warmup_intervals = 3;
  HealthMonitor mon(cfg);
  std::uint64_t seq = 0;
  for (int i = 0; i < 8; ++i)
    EXPECT_TRUE(mon.update(busy_sample(seq++, 1000.0)).empty());
  const auto alerts = mon.update(busy_sample(seq++, 50.0));  // < 25% of baseline
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].signal, "health.throughput");
  EXPECT_EQ(mon.state(), HealthState::kDegraded);
}

TEST(HealthMonitor, QueueDepthAlertIsOptIn) {
  HealthMonitor off;  // queue_depth_alert = 0 disables the symptom
  EXPECT_TRUE(off.update(busy_sample(0, 100.0, 0.0, 1e9)).empty());

  HealthConfig cfg;
  cfg.queue_depth_alert = 8.0;
  HealthMonitor on(cfg);
  const auto alerts = on.update(busy_sample(0, 100.0, 0.0, 32.0));
  ASSERT_EQ(alerts.size(), 1u);
  EXPECT_EQ(alerts[0].signal, "health.queue_depth");
}

TEST(HealthMonitor, RecoveryNeedsACleanStreak) {
  HealthConfig cfg;
  cfg.recovery_intervals = 3;
  HealthMonitor mon(cfg);
  std::uint64_t seq = 0;
  mon.update(busy_sample(seq++, 100.0, 0.9));
  EXPECT_EQ(mon.state(), HealthState::kDegraded);
  mon.update(busy_sample(seq++, 100.0));
  mon.update(busy_sample(seq++, 100.0));
  EXPECT_EQ(mon.state(), HealthState::kDegraded);  // streak of 2 < 3
  mon.update(busy_sample(seq++, 100.0));
  EXPECT_EQ(mon.state(), HealthState::kOk);
  EXPECT_TRUE(mon.status().recent.empty());  // episode log cleared
  EXPECT_EQ(mon.status().alerts_total, 1u);  // history of totals survives
}

// Acceptance scenario: hung trials (deadline-cancelled) in a real campaign
// degrade the health loop through the Aggregator and surface as a
// `health.timeout_rate` alert event on the ring.
TEST(HealthLoop, HungTrialsDegradeHealthAndRaiseAlertEvent) {
  if (!kCompiledIn) GTEST_SKIP() << "live pipeline compiled out (-DLORE_OBS=OFF)";
  const bool was = enabled();
  set_enabled(true);
  auto& reg = MetricsRegistry::global();
  reg.reset();

  AggregatorConfig cfg;
  cfg.interval = std::chrono::milliseconds(0);  // manual ticks: deterministic
  Aggregator agg(cfg);
  agg.start();

  lore::CampaignSpec spec;
  spec.trials = 8;
  spec.base_seed = 11;
  spec.threads = 2;
  spec.trial_deadline = std::chrono::milliseconds(5);
  spec.max_retries = 0;
  const auto result = lore::run_campaign<int>(
      spec, [](std::size_t i, lore::Rng&, const lore::CancelToken& cancel) {
        if (i % 2 == 0) {
          // A hung trial: spins until the per-trial deadline cancels it.
          for (;;) {
            cancel.throw_if_cancelled();
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }
        return static_cast<int>(i);
      });
  ASSERT_EQ(result.report.timeouts, 4u);

  const IntervalStats iv = agg.tick();
  EXPECT_EQ(iv.timeouts, 4u);
  EXPECT_GT(iv.timeout_rate, 0.10);
  EXPECT_GE(iv.alerts, 1u);
  EXPECT_EQ(agg.health_status().state, HealthState::kDegraded);
  bool found = false;
  for (const auto& a : agg.health_status().recent)
    found = found || a.signal == "health.timeout_rate";
  EXPECT_TRUE(found);

  // The alert was also emitted as an event; the next interval counts it.
  const IntervalStats next = agg.tick();
  EXPECT_GE(next.per_kind[static_cast<std::size_t>(EventKind::kAlert)], 1u);

  // Published instruments reflect the episode.
  const Snapshot snap = reg.snapshot();
  EXPECT_GE(snap.counter_value("health.alerts"), 1u);
  double health_state = 0.0;
  for (const auto& [name, value] : snap.gauges)
    if (name == "health.state") health_state = value;
  EXPECT_EQ(health_state, 1.0);

  agg.stop();
  reg.reset();
  set_enabled(was);
}

// Counter-delta plumbing: completed trials land in the interval rates.
TEST(HealthLoop, AggregatorTurnsCountersIntoIntervalRates) {
  if (!kCompiledIn) GTEST_SKIP() << "live pipeline compiled out (-DLORE_OBS=OFF)";
  const bool was = enabled();
  set_enabled(true);
  auto& reg = MetricsRegistry::global();
  reg.reset();

  AggregatorConfig cfg;
  cfg.interval = std::chrono::milliseconds(0);
  Aggregator agg(cfg);
  agg.start();

  lore::CampaignSpec spec;
  spec.trials = 200;
  spec.base_seed = 5;
  spec.threads = 4;
  const auto result = lore::run_campaign<int>(
      spec, [](std::size_t i, lore::Rng&, const lore::CancelToken&) {
        return static_cast<int>(i);
      });
  ASSERT_TRUE(result.report.complete());

  const IntervalStats iv = agg.tick();
  EXPECT_EQ(iv.trials_completed, 200u);
  EXPECT_GT(iv.trials_per_s, 0.0);
  EXPECT_EQ(iv.timeout_rate, 0.0);
  EXPECT_EQ(agg.health_status().state, HealthState::kOk);
  if (kCompiledIn)  // per-kind event tallies come from the live event counts
    EXPECT_GT(iv.per_kind[static_cast<std::size_t>(EventKind::kTrialCompleted)], 0u);

  // A second, idle interval: deltas reset to zero, state stays ok.
  const IntervalStats idle = agg.tick();
  EXPECT_EQ(idle.trials_completed, 0u);
  EXPECT_EQ(agg.health_status().state, HealthState::kOk);

  // The retained history serialises as lore.intervals.v1.
  const Json doc = agg.intervals_json();
  EXPECT_EQ(doc.at("schema").as_string(), "lore.intervals.v1");
  ASSERT_EQ(doc.at("intervals").size(), 2u);
  EXPECT_EQ(doc.at("intervals").at(std::size_t{0}).at("trials_completed").as_int(), 200);

  agg.stop();
  reg.reset();
  set_enabled(was);
}

}  // namespace
