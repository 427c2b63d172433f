// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component in LORE (fault injectors, Monte Carlo harnesses,
// ML weight initialization, workload generators) takes an explicit Rng so that
// experiments are reproducible from a single seed and independent streams can
// be split without correlation.
#pragma once

#include <cstdint>
#include <vector>

namespace lore {

/// xoshiro256** by Blackman & Vigna — fast, high-quality, 256-bit state.
/// Seeded through splitmix64 so that nearby seeds give unrelated streams.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }
  result_type operator()() { return next_u64(); }

  /// Uniform double in [0, 1).
  double uniform();
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_index(std::uint64_t n);
  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);
  /// Standard normal via Marsaglia polar method (cached spare).
  double normal();
  /// Normal with given mean / stddev.
  double normal(double mean, double stddev);
  /// Bernoulli trial.
  bool bernoulli(double p);
  /// Exponential with given rate lambda (> 0).
  double exponential(double lambda);
  /// Geometric: number of failures before first success, success prob p in (0,1].
  std::uint64_t geometric(double p);
  /// geometric(p) given the precomputed `log1m_p = log1p(-p)` (< 0), for
  /// callers that draw many times at one p. Same draw, same value.
  std::uint64_t geometric_log1m(double log1m_p);
  /// Poisson with mean lambda (inversion for small, normal approx for large).
  std::uint64_t poisson(double lambda);
  /// Weibull(shape k, scale lambda).
  double weibull(double shape, double scale);
  /// Lognormal with given log-mean and log-stddev.
  double lognormal(double mu, double sigma);

  /// Derive an independent child stream (for per-worker / per-trial streams).
  Rng split();

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(uniform_index(i));
      std::swap(v[i - 1], v[j]);
    }
  }

  /// Sample k distinct indices from [0, n) (k <= n), in random order.
  std::vector<std::size_t> sample_indices(std::size_t n, std::size_t k);

 private:
  std::uint64_t s_[4]{};
  double spare_normal_ = 0.0;
  bool has_spare_ = false;
};

}  // namespace lore
