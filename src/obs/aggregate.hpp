// Background aggregation for the live telemetry pipeline (DESIGN.md §10).
//
// An `Aggregator` periodically (or on manual `tick()`) does three things:
//  1. differences the live per-kind event counts (event.hpp) against the
//     previous tick (`lore.events.v1` event stream -> per-interval counts);
//  2. snapshots `MetricsRegistry::global()` and differences the campaign /
//     parallel counters against the previous snapshot, turning monotonic
//     totals into per-interval deltas and rates (trials/s, timeout ratio,
//     mean queue depth);
//  3. feeds the interval into the `HealthMonitor`, publishes the `agg.*` and
//     `health.*` gauges back into the registry, and emits a `kAlert` event
//     (counted in the next interval) for any symptom the health loop raises.
//
// A bounded history of intervals is kept for the `/intervals.json` endpoint,
// the bench artifacts (`BENCH_*.json` gains an `intervals` array), and
// `scripts/lore_top.py`. With `interval == 0` no thread is spawned and the
// owner drives `tick()` manually (tests, deterministic flushes).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "src/obs/health.hpp"
#include "src/obs/json.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/event.hpp"

namespace lore::obs {

/// One finished aggregation interval of the live pipeline.
struct IntervalStats {
  std::uint64_t seq = 0;
  double t_start_us = 0.0;  // TraceRecorder::now_us timeline
  double t_end_us = 0.0;
  double dt_s = 0.0;

  // Event-count deltas (exact: counts cannot drop).
  std::uint64_t events = 0;
  std::uint64_t per_kind[kEventKindCount] = {};

  // Registry counter deltas.
  std::uint64_t trials_completed = 0;  // campaign + parallel_for_trials
  std::uint64_t timeouts = 0;          // timed-out attempts
  std::uint64_t retries = 0;
  std::uint64_t failures = 0;
  std::uint64_t checkpoints = 0;

  // Derived rates.
  double trials_per_s = 0.0;
  double events_per_s = 0.0;
  double timeout_rate = 0.0;  // timeouts / (completed + timeouts + failures)
  double queue_depth = 0.0;   // mean submit-time queue depth this interval

  std::size_t alerts = 0;  // health alerts raised by this interval
};

struct AggregatorConfig {
  /// Aggregation period; 0 = no background thread, manual tick() only.
  std::chrono::milliseconds interval{500};
  /// Intervals retained for /intervals.json and the bench artifact.
  std::size_t history = 240;
  HealthConfig health;
};

class Aggregator {
 public:
  explicit Aggregator(AggregatorConfig cfg = {},
                      MetricsRegistry& registry = MetricsRegistry::global());
  ~Aggregator();

  Aggregator(const Aggregator&) = delete;
  Aggregator& operator=(const Aggregator&) = delete;

  /// Turn live event counting on and (when interval > 0) spawn the
  /// aggregation thread. Idempotent.
  void start();
  /// Final tick, then stop the thread and turn event counting off.
  void stop();
  bool running() const { return running_.load(std::memory_order_relaxed); }

  /// Aggregate everything since the previous tick into one interval.
  /// Thread-safe (serialized against the background thread).
  IntervalStats tick();

  std::vector<IntervalStats> history() const;
  IntervalStats latest() const;
  std::uint64_t intervals() const;

  const HealthMonitor& health() const { return health_; }
  HealthStatus health_status() const { return health_.status(); }

  /// {"schema":"lore.intervals.v1","intervals":[...]} of the retained
  /// history, oldest first. Deterministic field order.
  Json intervals_json() const;

 private:
  void loop();
  IntervalStats tick_locked();

  AggregatorConfig cfg_;
  MetricsRegistry& registry_;
  HealthMonitor health_;

  mutable std::mutex mu_;          // guards history_ + tick state
  std::deque<IntervalStats> history_;
  std::uint64_t seq_ = 0;
  double last_tick_us_ = 0.0;
  std::array<std::uint64_t, kEventKindCount> last_kind_counts_{};
  std::vector<std::pair<std::string, std::uint64_t>> last_counters_;
  double last_queue_sum_ = 0.0;
  std::uint64_t last_queue_count_ = 0;

  std::thread thread_;
  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stop_requested_ = false;      // guarded by stop_mu_
  std::atomic<bool> running_{false};
};

/// JSON object of one interval (shared by intervals_json and bench_util).
Json interval_to_json(const IntervalStats& iv);

}  // namespace lore::obs
