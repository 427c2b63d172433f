#include "src/rollback/error_model.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lore::rollback {

double prob_error_free(double p, std::uint64_t cycles) {
  assert(p >= 0.0 && p <= 1.0);
  if (p <= 0.0) return 1.0;
  if (p >= 1.0) return cycles == 0 ? 1.0 : 0.0;
  // (1-p)^n via expm1/log1p for numerical stability at tiny p, huge n.
  return std::exp(static_cast<double>(cycles) * std::log1p(-p));
}

double prob_rollbacks(double p, std::uint64_t cycles, std::uint64_t n) {
  const double q = prob_error_free(p, cycles);
  return std::pow(1.0 - q, static_cast<double>(n)) * q;
}

double expected_rollbacks(double p, std::uint64_t cycles) {
  const double q = prob_error_free(p, cycles);
  if (q <= 0.0) return 1e300;  // attempts essentially never succeed
  return (1.0 - q) / q;
}

RollbackSampler::RollbackSampler(double p, std::uint64_t cycles)
    : q_(prob_error_free(p, cycles)), log1m_q_(std::log1p(-q_)) {}

std::uint64_t RollbackSampler::draw(lore::Rng& rng) const {
  if (q_ <= 1e-12) return kCap;
  if (q_ >= 1.0) return 0;
  return std::min<std::uint64_t>(kCap, rng.geometric_log1m(log1m_q_));
}

std::uint64_t sample_rollbacks(double p, std::uint64_t cycles, lore::Rng& rng) {
  return RollbackSampler(p, cycles).draw(rng);
}

std::uint64_t segment_total_cycles(std::uint64_t nominal_cycles, std::uint64_t rollbacks,
                                   const CheckpointParams& params) {
  // (n+1) attempts, each runs the segment and its checkpoint routine;
  // n rollback routines in between.
  return (rollbacks + 1) * (nominal_cycles + params.checkpoint_cycles) +
         rollbacks * params.rollback_cycles;
}

double expected_segment_cycles(double p, std::uint64_t nominal_cycles,
                               const CheckpointParams& params) {
  const std::uint64_t window = nominal_cycles + params.checkpoint_cycles;
  const double n = expected_rollbacks(p, window);
  return (n + 1.0) * static_cast<double>(window) +
         n * static_cast<double>(params.rollback_cycles);
}

std::uint64_t sample_segment_cycles(double p, std::uint64_t nominal_cycles,
                                    const CheckpointParams& params, lore::Rng& rng,
                                    std::uint64_t* rollbacks_out) {
  // The vulnerable window of an attempt is the segment plus its checkpoint.
  const std::uint64_t window = nominal_cycles + params.checkpoint_cycles;
  const std::uint64_t n = sample_rollbacks(p, window, rng);
  if (rollbacks_out != nullptr) *rollbacks_out = n;
  return segment_total_cycles(nominal_cycles, n, params);
}

}  // namespace lore::rollback
