#include "src/common/rng.hpp"

#include <cassert>
#include <cmath>

namespace lore {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
  has_spare_ = false;
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 random mantissa bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  assert(n > 0);
  // Lemire's nearly-divisionless bounded sampling.
  std::uint64_t x = next_u64();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = next_u64();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  assert(lo <= hi);
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(uniform_index(span));
}

double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

bool Rng::bernoulli(double p) { return uniform() < p; }

double Rng::exponential(double lambda) {
  assert(lambda > 0.0);
  return -std::log1p(-uniform()) / lambda;
}

std::uint64_t Rng::geometric(double p) {
  assert(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  return geometric_log1m(std::log1p(-p));
}

std::uint64_t Rng::geometric_log1m(double log1m_p) {
  assert(log1m_p < 0.0);
  // Inversion: floor(log(U) / log(1-p)). Clamp before the cast: for tiny p
  // the quotient can exceed the uint64 range (the cast would be UB).
  const double u = 1.0 - uniform();  // in (0, 1]
  const double n = std::floor(std::log(u) / log1m_p);
  constexpr double kMax = 9.0e18;
  return n >= kMax ? static_cast<std::uint64_t>(kMax) : static_cast<std::uint64_t>(n);
}

std::uint64_t Rng::poisson(double lambda) {
  assert(lambda >= 0.0);
  if (lambda <= 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth's multiplication method.
    const double limit = std::exp(-lambda);
    double prod = uniform();
    std::uint64_t n = 0;
    while (prod > limit) {
      prod *= uniform();
      ++n;
    }
    return n;
  }
  // Normal approximation with continuity correction for large lambda.
  const double x = normal(lambda, std::sqrt(lambda));
  return x <= 0.0 ? 0 : static_cast<std::uint64_t>(x + 0.5);
}

double Rng::weibull(double shape, double scale) {
  assert(shape > 0.0 && scale > 0.0);
  return scale * std::pow(-std::log1p(-uniform()), 1.0 / shape);
}

double Rng::lognormal(double mu, double sigma) { return std::exp(normal(mu, sigma)); }

Rng Rng::split() {
  // Two draws feed a fresh splitmix seed: child stream is decorrelated.
  return Rng(next_u64() ^ rotl(next_u64(), 32));
}

std::vector<std::size_t> Rng::sample_indices(std::size_t n, std::size_t k) {
  assert(k <= n);
  std::vector<std::size_t> all(n);
  for (std::size_t i = 0; i < n; ++i) all[i] = i;
  // Partial Fisher-Yates: first k positions become the sample.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(uniform_index(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(k);
  return all;
}

}  // namespace lore
