#include "src/obs/metrics.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace lore::obs {
namespace {

/// Relaxed CAS-min/max for atomic doubles (observe() races are benign).
void atomic_min(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_max(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

void atomic_add(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  assert(std::is_sorted(bounds_.begin(), bounds_.end()));
}

void Histogram::observe(double x) {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), x);
  const auto idx = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  atomic_add(sum_, x);
  atomic_min(min_, x);
  atomic_max(max_, x);
}

void Histogram::observe_all(std::span<const double> xs) {
  if (xs.empty()) return;
  std::vector<std::uint64_t> counts(buckets_.size(), 0);
  double sum = 0.0;
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  for (const double x : xs) {
    ++counts[static_cast<std::size_t>(std::lower_bound(bounds_.begin(), bounds_.end(), x) -
                                      bounds_.begin())];
    sum += x;
    lo = std::min(lo, x);
    hi = std::max(hi, x);
  }
  for (std::size_t i = 0; i < counts.size(); ++i)
    if (counts[i]) buckets_[i].fetch_add(counts[i], std::memory_order_relaxed);
  count_.fetch_add(xs.size(), std::memory_order_relaxed);
  atomic_add(sum_, sum);
  atomic_min(min_, lo);
  atomic_max(max_, hi);
}

double Histogram::mean() const {
  const auto n = count();
  return n ? sum() / static_cast<double>(n) : 0.0;
}

double Histogram::min() const { return min_.load(std::memory_order_relaxed); }
double Histogram::max() const { return max_.load(std::memory_order_relaxed); }

std::vector<std::uint64_t> Histogram::bucket_counts() const {
  std::vector<std::uint64_t> out(buckets_.size());
  for (std::size_t i = 0; i < buckets_.size(); ++i)
    out[i] = buckets_[i].load(std::memory_order_relaxed);
  return out;
}

double Histogram::percentile(double q) const {
  const auto counts = bucket_counts();
  std::uint64_t total = 0;
  for (auto c : counts) total += c;
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);

  std::uint64_t below = 0;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const std::uint64_t upto = below + counts[i];
    if (static_cast<double>(upto) >= rank) {
      // Interpolate the rank position across this bucket's edge span; the
      // open edges (below the first bound / above the last) fall back to the
      // observed extremes.
      const double lo = i == 0 ? min() : bounds_[i - 1];
      const double hi = i < bounds_.size() ? bounds_[i] : max();
      const double within =
          (rank - static_cast<double>(below)) / static_cast<double>(counts[i]);
      const double v = lo + (hi - lo) * std::clamp(within, 0.0, 1.0);
      return std::clamp(v, min(), max());
    }
    below = upto;
  }
  return max();
}

void Histogram::reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(), std::memory_order_relaxed);
}

std::vector<double> Histogram::exponential_bounds(double lo, double hi, std::size_t n) {
  assert(lo > 0.0 && hi > lo && n >= 2);
  std::vector<double> edges(n);
  const double ratio = std::pow(hi / lo, 1.0 / static_cast<double>(n - 1));
  double v = lo;
  for (std::size_t i = 0; i < n; ++i, v *= ratio) edges[i] = v;
  edges.back() = hi;
  return edges;
}

std::vector<double> Histogram::linear_bounds(double lo, double hi, std::size_t n) {
  assert(hi > lo && n >= 2);
  std::vector<double> edges(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) edges[i] = lo + step * static_cast<double>(i);
  edges.back() = hi;
  return edges;
}

std::vector<double> Histogram::default_time_bounds_us() {
  return exponential_bounds(1.0, 1e7, 29);  // 1 us .. 10 s, ~1.78x per bucket
}

std::uint64_t Snapshot::counter_value(const std::string& name) const {
  for (const auto& [n, v] : counters)
    if (n == name) return v;
  return 0;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  std::lock_guard lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    if (upper_bounds.empty()) upper_bounds = Histogram::default_time_bounds_us();
    slot = std::make_unique<Histogram>(std::move(upper_bounds));
  } else if (!upper_bounds.empty() && upper_bounds != slot->upper_bounds()) {
    // First-registration-wins is the contract, but a caller that asked for a
    // different layout will silently observe into buckets it did not expect;
    // surface the mismatch once per name instead of ignoring it.
    bool& warned = histogram_layout_warned_[name];
    if (!warned) {
      warned = true;
      std::fprintf(stderr,
                   "lore: obs: histogram '%s' re-registered with a different "
                   "bucket layout (%zu vs %zu edges); keeping the first "
                   "registration's buckets\n",
                   name.c_str(), upper_bounds.size(), slot->upper_bounds().size());
    }
  }
  return *slot;
}

Snapshot MetricsRegistry::snapshot() const {
  std::lock_guard lock(mu_);
  Snapshot snap;
  snap.counters.reserve(counters_.size());
  for (const auto& [name, c] : counters_) snap.counters.emplace_back(name, c->value());
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, g] : gauges_) snap.gauges.emplace_back(name, g->value());
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.count = h->count();
    hs.sum = h->sum();
    hs.min = hs.count ? h->min() : 0.0;
    hs.max = hs.count ? h->max() : 0.0;
    hs.p50 = h->percentile(0.50);
    hs.p95 = h->percentile(0.95);
    hs.p99 = h->percentile(0.99);
    hs.upper_bounds = h->upper_bounds();
    hs.buckets = h->bucket_counts();
    snap.histograms.push_back(std::move(hs));
  }
  return snap;
}

void MetricsRegistry::reset() {
  std::lock_guard lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->reset();
  for (auto& [name, h] : histograms_) h->reset();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

bool env_enabled() {
  const char* v = std::getenv("LORE_OBS");
  if (!v) return true;
  return !(std::strcmp(v, "0") == 0 || std::strcmp(v, "off") == 0 ||
           std::strcmp(v, "false") == 0);
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag{env_enabled()};
  return flag;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }
void set_enabled(bool on) { enabled_flag().store(on, std::memory_order_relaxed); }

}  // namespace lore::obs
