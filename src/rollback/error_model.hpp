// Register-level error model of Sec. V-A and the checkpointing/rollback
// timing model of Sec. V-B, implementing the paper's equations directly:
//
//   (1)  Pr(N_e = 0) = (1 - p)^{n_c}
//   (2)  Pr(N_rb = n) = (1 - (1-p)^{n_c})^n (1-p)^{n_c}
//
// A cycle is erroneous when any pipeline register holds a wrong value; the
// per-cycle probability p is static over time. Errors are unlimited in count
// and may also strike re-computations — the properties the paper highlights
// over prior bounded-error models.
#pragma once

#include <cstdint>

#include "src/common/rng.hpp"

namespace lore::rollback {

/// Eq. (1): probability an interval of `cycles` is error-free.
double prob_error_free(double p, std::uint64_t cycles);

/// Geometric success probability of one segment attempt: q = (1-p)^{n_c}.
inline double attempt_success_probability(double p, std::uint64_t cycles) {
  return prob_error_free(p, cycles);
}

/// Eq. (2): probability mass of exactly `n` rollbacks for a segment of
/// `cycles` cycles.
double prob_rollbacks(double p, std::uint64_t cycles, std::uint64_t n);

/// Closed-form mean of Eq. (2): E[N_rb] = (1-q)/q.
double expected_rollbacks(double p, std::uint64_t cycles);

/// Eq. (2) sampler prepared for one (p, window) pair: q = (1-p)^{n_c} and
/// log(1-q) do not depend on the draw, so they are computed once and each
/// draw costs one uniform and one log. Every rollback count in the library
/// is drawn here.
class RollbackSampler {
 public:
  /// Count drawn when attempts essentially never succeed (q <= 1e-12): it
  /// keeps downstream cycle arithmetic in range ("the run never converges").
  static constexpr std::uint64_t kCap = 1000000;

  RollbackSampler() = default;
  RollbackSampler(double p, std::uint64_t cycles);

  /// One rollback count. q <= 1e-12 returns kCap and q >= 1 returns 0, both
  /// without touching `rng`.
  std::uint64_t draw(lore::Rng& rng) const;

 private:
  double q_ = 1.0;
  double log1m_q_ = 0.0;
};

/// Sample a rollback count from Eq. (2).
std::uint64_t sample_rollbacks(double p, std::uint64_t cycles, lore::Rng& rng);

/// Timing parameters of the checkpointing and rollback-recovery system
/// (Sec. V-B; the 100/48-cycle costs follow OCEAN [51]).
struct CheckpointParams {
  std::uint64_t checkpoint_cycles = 100;
  std::uint64_t rollback_cycles = 48;
};

/// Total cycles to commit one segment given its rollback count: every attempt
/// pays the segment plus a checkpoint, every rollback adds the restore cost.
std::uint64_t segment_total_cycles(std::uint64_t nominal_cycles, std::uint64_t rollbacks,
                                   const CheckpointParams& params);

/// Expected committed cycles of a segment under error probability p. Note the
/// error window of an attempt includes the checkpoint routine itself.
double expected_segment_cycles(double p, std::uint64_t nominal_cycles,
                               const CheckpointParams& params);

/// Sample a segment's total cycles (errors can hit re-computations too).
std::uint64_t sample_segment_cycles(double p, std::uint64_t nominal_cycles,
                                    const CheckpointParams& params, lore::Rng& rng,
                                    std::uint64_t* rollbacks_out = nullptr);

}  // namespace lore::rollback
