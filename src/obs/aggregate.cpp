#include "src/obs/aggregate.hpp"

#include <algorithm>

#include "src/obs/span.hpp"

namespace lore::obs {

Json interval_to_json(const IntervalStats& iv) {
  Json j = Json::object();
  j["seq"] = iv.seq;
  j["t_start_us"] = iv.t_start_us;
  j["t_end_us"] = iv.t_end_us;
  j["dt_s"] = iv.dt_s;
  j["events"] = iv.events;
  j["events_dropped"] = std::uint64_t{0};  // schema field: counts cannot drop
  Json kinds = Json::object();
  for (std::size_t k = 0; k < kEventKindCount; ++k)
    kinds[event_kind_name(static_cast<EventKind>(k))] = iv.per_kind[k];
  j["per_kind"] = std::move(kinds);
  j["trials_completed"] = iv.trials_completed;
  j["timeouts"] = iv.timeouts;
  j["retries"] = iv.retries;
  j["failures"] = iv.failures;
  j["checkpoints"] = iv.checkpoints;
  j["trials_per_s"] = iv.trials_per_s;
  j["events_per_s"] = iv.events_per_s;
  j["timeout_rate"] = iv.timeout_rate;
  j["queue_depth"] = iv.queue_depth;
  j["alerts"] = static_cast<std::uint64_t>(iv.alerts);
  return j;
}

#ifndef LORE_OBS_DISABLED

Aggregator::Aggregator(AggregatorConfig cfg, MetricsRegistry& registry)
    : cfg_(cfg), registry_(registry), health_(cfg.health) {
  last_tick_us_ = TraceRecorder::now_us();
  last_kind_counts_ = event_counts();
}

Aggregator::~Aggregator() { stop(); }

void Aggregator::start() {
  if (running_) return;
  set_event_counting(true);
  running_ = true;
  if (cfg_.interval.count() > 0) {
    stop_requested_ = false;
    thread_ = std::thread([this] { loop(); });
  }
}

void Aggregator::stop() {
  if (!running_) return;
  {
    std::lock_guard lock(stop_mu_);
    stop_requested_ = true;
  }
  stop_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  tick();  // flush the tail interval so nothing emitted so far is lost
  set_event_counting(false);
  running_ = false;
}

void Aggregator::loop() {
  std::unique_lock lock(stop_mu_);
  for (;;) {
    if (stop_cv_.wait_for(lock, cfg_.interval, [this] { return stop_requested_; }))
      return;  // final flush happens in stop()
    lock.unlock();
    tick();
    lock.lock();
  }
}

IntervalStats Aggregator::tick() {
  std::lock_guard lock(mu_);
  return tick_locked();
}

IntervalStats Aggregator::tick_locked() {
  const double now = TraceRecorder::now_us();
  IntervalStats iv;
  iv.seq = seq_++;
  iv.t_start_us = last_tick_us_;
  iv.t_end_us = now;
  iv.dt_s = (now - last_tick_us_) / 1e6;
  last_tick_us_ = now;

  // 1. Event stream: per-kind count deltas since the previous tick.
  const auto counts = event_counts();
  for (std::size_t k = 0; k < kEventKindCount; ++k) {
    iv.per_kind[k] = counts[k] - last_kind_counts_[k];
    iv.events += iv.per_kind[k];
  }
  last_kind_counts_ = counts;

  // 2. Counter deltas from the registry (monotonic totals -> interval deltas).
  const Snapshot snap = registry_.snapshot();
  const auto prev = [&](const std::string& name) -> std::uint64_t {
    const auto it = std::lower_bound(
        last_counters_.begin(), last_counters_.end(), name,
        [](const auto& p, const std::string& n) { return p.first < n; });
    return it != last_counters_.end() && it->first == name ? it->second : 0;
  };
  const auto delta = [&](const std::string& name) -> std::uint64_t {
    const std::uint64_t cur = snap.counter_value(name);
    const std::uint64_t old = prev(name);
    return cur >= old ? cur - old : cur;  // a registry reset restarts deltas
  };
  iv.trials_completed =
      delta("campaign.trials_completed") + delta("parallel.trials_completed");
  iv.timeouts = delta("campaign.timeouts");
  iv.retries = delta("campaign.retries");
  iv.failures = delta("campaign.trial_failures");
  iv.checkpoints = delta("campaign.checkpoints");
  for (const auto& h : snap.histograms) {
    if (h.name != "parallel.queue_depth") continue;
    const std::uint64_t dc = h.count >= last_queue_count_ ? h.count - last_queue_count_ : h.count;
    const double ds = h.count >= last_queue_count_ ? h.sum - last_queue_sum_ : h.sum;
    if (dc > 0) iv.queue_depth = ds / static_cast<double>(dc);
    last_queue_count_ = h.count;
    last_queue_sum_ = h.sum;
  }
  last_counters_ = snap.counters;

  if (iv.dt_s > 0.0) {
    iv.trials_per_s = static_cast<double>(iv.trials_completed) / iv.dt_s;
    iv.events_per_s = static_cast<double>(iv.events) / iv.dt_s;
  }
  const std::uint64_t attempted = iv.trials_completed + iv.timeouts + iv.failures;
  if (attempted > 0)
    iv.timeout_rate = static_cast<double>(iv.timeouts) / static_cast<double>(attempted);

  // 3. Health loop: feed the interval, publish gauges, raise alert events.
  HealthSample sample;
  sample.interval_seq = iv.seq;
  sample.dt_s = iv.dt_s;
  sample.trials_attempted = attempted;
  sample.trials_per_s = iv.trials_per_s;
  sample.timeout_rate = iv.timeout_rate;
  sample.queue_depth = iv.queue_depth;
  const auto alerts = health_.update(sample);
  iv.alerts = alerts.size();

  registry_.gauge("agg.intervals").set(static_cast<double>(iv.seq + 1));
  registry_.gauge("agg.trials_per_s").set(iv.trials_per_s);
  registry_.gauge("agg.events_per_s").set(iv.events_per_s);
  registry_.gauge("agg.timeout_rate").set(iv.timeout_rate);
  registry_.gauge("agg.queue_depth").set(iv.queue_depth);
  registry_.counter("obs.events").add(iv.events);
  registry_.gauge("health.state")
      .set(health_.state() == HealthState::kDegraded ? 1.0 : 0.0);
  registry_.gauge("health.timeout_rate").set(iv.timeout_rate);
  registry_.gauge("health.trials_per_s").set(iv.trials_per_s);
  if (!alerts.empty()) {
    registry_.counter("health.alerts").add(alerts.size());
    // Counted by the next interval: this one's counts are already taken.
    for (const auto& a : alerts) emit_event(EventKind::kAlert, a.interval_seq, a.value, a.signal);
  }

  history_.push_back(iv);
  while (history_.size() > cfg_.history) history_.pop_front();
  return iv;
}

std::vector<IntervalStats> Aggregator::history() const {
  std::lock_guard lock(mu_);
  return {history_.begin(), history_.end()};
}

IntervalStats Aggregator::latest() const {
  std::lock_guard lock(mu_);
  return history_.empty() ? IntervalStats{} : history_.back();
}

std::uint64_t Aggregator::intervals() const {
  std::lock_guard lock(mu_);
  return seq_;
}

Json Aggregator::intervals_json() const {
  Json doc = Json::object();
  doc["schema"] = "lore.intervals.v1";
  Json arr = Json::array();
  for (const auto& iv : history()) arr.push_back(interval_to_json(iv));
  doc["intervals"] = std::move(arr);
  return doc;
}

#else  // LORE_OBS_DISABLED: the pipeline compiles down to inert stubs.

Aggregator::Aggregator(AggregatorConfig cfg, MetricsRegistry& registry)
    : cfg_(cfg), registry_(registry), health_(cfg.health) {}
Aggregator::~Aggregator() = default;
void Aggregator::start() {}
void Aggregator::stop() {}
void Aggregator::loop() {}
IntervalStats Aggregator::tick() { return {}; }
IntervalStats Aggregator::tick_locked() { return {}; }
std::vector<IntervalStats> Aggregator::history() const { return {}; }
IntervalStats Aggregator::latest() const { return {}; }
std::uint64_t Aggregator::intervals() const { return 0; }

Json Aggregator::intervals_json() const {
  Json doc = Json::object();
  doc["schema"] = "lore.intervals.v1";
  doc["intervals"] = Json::array();
  return doc;
}

#endif  // LORE_OBS_DISABLED

}  // namespace lore::obs
