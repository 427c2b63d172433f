// First-party observability: a thread-safe registry of named counters,
// gauges, and fixed-bucket histograms. This is the Fig. 1 manager's own
// instrument panel — every layer (campaign engines, STA, characterization,
// rollback Monte Carlo, the RL governor) reports through it, and the sinks in
// export.hpp turn a snapshot into JSON, a Chrome trace, or a text table.
//
// Deliberately dependency-free (std only) so that even `lore_common` — the
// bottom of the library stack — can link against it and instrument the
// parallel campaign engine without a cycle.
//
// Determinism contract: counter values are sums of integer increments, so a
// campaign that runs the same trials produces bit-identical counters for any
// thread count. Gauges are last-writer-wins and must only be set from
// deterministic (serial) call sites. Histogram *values* fed from wall-clock
// timers are inherently nondeterministic; their bucket layout and count are
// not, and determinism tests compare counters only.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace lore::obs {

/// Monotonic event counter. All operations are lock-free relaxed atomics:
/// increments commute, so the total is scheduling-independent.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Last-writer-wins instantaneous value (temperature, reward, epsilon, ...).
class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram: `upper_bounds` are the inclusive upper edges of
/// the finite buckets; one overflow bucket catches everything above the last
/// edge. Observation is lock-free; percentiles are estimated by linear
/// interpolation inside the bucket holding the requested rank, clamped to
/// the observed [min, max].
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double x);
  /// Observe every value of `xs` with one atomic update per touched bucket
  /// — for a thread that batches its samples instead of contending per value.
  void observe_all(std::span<const double> xs);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  double min() const;  // +inf when empty
  double max() const;  // -inf when empty
  /// Quantile estimate for q in [0, 1] (0 when empty).
  double percentile(double q) const;

  const std::vector<double>& upper_bounds() const { return bounds_; }
  /// Finite buckets followed by the overflow bucket (size = bounds + 1).
  std::vector<std::uint64_t> bucket_counts() const;

  void reset();

  /// `n` geometrically spaced edges covering [lo, hi] (lo > 0).
  static std::vector<double> exponential_bounds(double lo, double hi, std::size_t n);
  /// `n` evenly spaced edges covering [lo, hi].
  static std::vector<double> linear_bounds(double lo, double hi, std::size_t n);
  /// Default edges for microsecond timings: 1 us .. 10 s, geometric.
  static std::vector<double> default_time_bounds_us();

 private:
  std::vector<double> bounds_;                      // sorted upper edges
  std::vector<std::atomic<std::uint64_t>> buckets_; // bounds_.size() + 1
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

/// Point-in-time copy of one histogram, with precomputed quantiles.
struct HistogramSnapshot {
  std::string name;
  std::uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  std::vector<double> upper_bounds;
  std::vector<std::uint64_t> buckets;
};

/// Point-in-time copy of a whole registry, sorted by instrument name (the
/// export formats inherit that deterministic order).
struct Snapshot {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::pair<std::string, double>> gauges;
  std::vector<HistogramSnapshot> histograms;

  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }
  /// Counter value by name (0 when absent) — convenience for tests/benches.
  std::uint64_t counter_value(const std::string& name) const;
};

/// Named-instrument registry. Lookup takes a mutex; the returned references
/// are stable for the registry's lifetime, so hot paths resolve once and
/// then update lock-free.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  /// `upper_bounds` is used only on first registration (empty = default time
  /// buckets); later calls with the same name return the existing histogram
  /// unchanged — first registration wins. Re-registering a name with a
  /// *different* non-empty bucket layout is almost always a bug (the caller
  /// expects its layout but observes into another), so the mismatch is
  /// detected and warned about on stderr, once per name.
  Histogram& histogram(const std::string& name, std::vector<double> upper_bounds = {});

  Snapshot snapshot() const;
  /// Zero every instrument (registrations and cached references survive).
  void reset();

  /// The process-wide registry all built-in instrumentation reports to.
  static MetricsRegistry& global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  std::map<std::string, bool> histogram_layout_warned_;  // once-per-name
};

/// Runtime switch for all built-in instrumentation (macros in obs.hpp and
/// the instrumented hot paths consult it). Initialized once from the
/// `LORE_OBS` environment variable: "0", "off", or "false" disable.
bool enabled();
/// Override the environment (used by `--quiet` bench mode and tests).
void set_enabled(bool on);

}  // namespace lore::obs
