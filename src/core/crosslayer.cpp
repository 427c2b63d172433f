#include "src/core/crosslayer.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lore::core {

CrossLayerEnvironment::CrossLayerEnvironment(CrossLayerConfig cfg)
    : cfg_(cfg), platform_({os::make_big_core()}), rng_(cfg.seed) {
  // Register the per-layer resiliency models (Fig. 1's model box).
  // Observation layout: {voltage, freq_ghz, temperature_k, utilization}.
  registry_.register_model("energy", [](std::span<const double> obs) {
    return obs[0] * obs[0] * obs[1] * obs[3];  // dynamic CV^2 f proxy
  });
  registry_.register_model("ser", [this](std::span<const double> obs) {
    const os::VfLevel level{obs[0], obs[1]};
    return ser_.rate_per_s(level, platform_.ladder());
  });
  registry_.register_model("mttf", [](std::span<const double> obs) {
    static const auto mechanisms = device::standard_mechanisms();
    device::LifetimeCondition cond;
    cond.vdd = obs[0];
    cond.temperature = obs[2];
    cond.duty_cycle = std::max(0.05, obs[3]);
    cond.toggle_rate_ghz = obs[1] * obs[3];
    return device::combined_mttf_years(mechanisms, cond);
  });
  energy_model_ = &registry_.model("energy");
  ser_model_ = &registry_.model("ser");
  mttf_model_ = &registry_.model("mttf");
}

std::size_t CrossLayerEnvironment::num_states() const {
  return cfg_.temp_bins * cfg_.load_bins * platform_.ladder().size();
}

std::size_t CrossLayerEnvironment::encode() const {
  const double tn = (platform_.core(0).temperature_k - cfg_.temp_lo_k) /
                    (cfg_.temp_hi_k - cfg_.temp_lo_k);
  auto tb = static_cast<std::ptrdiff_t>(tn * static_cast<double>(cfg_.temp_bins));
  tb = std::clamp<std::ptrdiff_t>(tb, 0, static_cast<std::ptrdiff_t>(cfg_.temp_bins) - 1);
  auto lb = static_cast<std::ptrdiff_t>(demanded_load_ * static_cast<double>(cfg_.load_bins));
  lb = std::clamp<std::ptrdiff_t>(lb, 0, static_cast<std::ptrdiff_t>(cfg_.load_bins) - 1);
  return (static_cast<std::size_t>(tb) * cfg_.load_bins + static_cast<std::size_t>(lb)) *
             platform_.ladder().size() +
         platform_.core(0).vf_index;
}

std::size_t CrossLayerEnvironment::reset() {
  platform_ = os::Platform({os::make_big_core()});
  demanded_load_ = rng_.uniform(0.2, 0.9);
  return encode();
}

ReliabilityEnvironment::StepResult CrossLayerEnvironment::step(std::size_t action) {
  assert(action < platform_.ladder().size());
  platform_.set_vf(0, action);

  // Workload random walk.
  demanded_load_ =
      std::clamp(demanded_load_ + rng_.normal(0.0, cfg_.load_volatility), 0.05, 1.0);
  // Delivered utilization: demand scaled by how much capacity the level has
  // relative to the top level (too-slow levels leave work undone AND run at
  // full utilization).
  const auto& level = platform_.ladder()[action];
  const double capacity_ratio = level.freq_ghz / platform_.max_freq_ghz();
  const double utilization = std::min(1.0, demanded_load_ / capacity_ratio);
  const double undone = std::max(0.0, demanded_load_ - capacity_ratio);

  platform_.step(cfg_.control_dt_s, std::span<const double>(&utilization, 1));

  const double obs[] = {level.voltage, level.freq_ghz, platform_.core(0).temperature_k,
                        utilization};
  const double energy = (*energy_model_)(obs);
  const double ser = (*ser_model_)(obs);
  const double mttf = (*mttf_model_)(obs);
  const double temp_excess =
      std::max(0.0, platform_.core(0).temperature_k - cfg_.temp_limit_k) / 10.0;

  StepResult r;
  // Reward: cheap, reliable (low SER / long MTTF), cool, and keeping up with
  // demand. log-MTTF keeps the scale comparable across mechanisms.
  r.reward = -cfg_.w_energy * energy - cfg_.w_ser * std::log10(ser / 1e-6) -
             cfg_.w_temp * temp_excess + cfg_.w_mttf * std::log10(std::max(1e-3, mttf)) -
             4.0 * undone;
  r.next_state = encode();
  r.terminal = false;
  return r;
}

}  // namespace lore::core
