#include "src/os/platform.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace lore::os {

std::vector<VfLevel> default_vf_ladder() {
  return {{0.60, 0.4}, {0.70, 0.8}, {0.80, 1.2}, {0.90, 1.6}, {1.00, 2.0}};
}

CoreType make_big_core() { return CoreType{}; }

CoreType make_little_core() {
  CoreType t;
  t.name = "little";
  t.perf_factor = 0.45;
  t.ceff_nf = 0.35;
  t.leakage_ref_w = 0.05;
  t.avf_factor = 0.55;  // smaller state, less exposure
  t.rth_k_per_w = 32.0;
  t.thermal_tau_s = 0.05;
  return t;
}

Platform::Platform(std::vector<CoreType> cores, PlatformConfig cfg) : cfg_(std::move(cfg)) {
  assert(!cores.empty() && !cfg_.ladder.empty());
  cores_.reserve(cores.size());
  for (auto& type : cores) {
    Core c;
    c.type = std::move(type);
    c.temperature_k = cfg_.ambient_k;
    c.peak_temperature_k = cfg_.ambient_k;
    c.min_temperature_k = cfg_.ambient_k;
    cores_.push_back(std::move(c));
  }
  new_temp_.resize(cores_.size());
}

void Platform::set_vf(std::size_t core, std::size_t vf_index) {
  assert(core < cores_.size() && vf_index < cfg_.ladder.size());
  cores_[core].vf_index = vf_index;
}

void Platform::set_power_state(std::size_t core, PowerState state) {
  assert(core < cores_.size());
  cores_[core].power_state = state;
}

double Platform::core_power_w(std::size_t core, double utilization) const {
  assert(core < cores_.size());
  const Core& c = cores_[core];
  if (c.power_state == PowerState::kOff) return 0.0;
  const VfLevel& vf = cfg_.ladder[c.vf_index];
  // Leakage: exponential in voltage, super-linear in temperature.
  const double leak = c.type.leakage_ref_w * std::exp(3.0 * (vf.voltage - 0.8)) *
                      std::exp(0.012 * (c.temperature_k - 330.0));
  switch (c.power_state) {
    case PowerState::kSleep: return 0.1 * leak;
    case PowerState::kIdle: return leak;
    case PowerState::kActive: {
      const double dynamic = c.type.ceff_nf * vf.voltage * vf.voltage * vf.freq_ghz *
                             std::clamp(utilization, 0.0, 1.0);
      return dynamic + leak;
    }
    case PowerState::kOff: return 0.0;
  }
  return 0.0;
}

double Platform::step(double dt_s, std::span<const double> utilization) {
  assert(utilization.size() == cores_.size() && dt_s > 0.0);
  double energy = 0.0;
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    Core& c = cores_[i];
    const double power = core_power_w(i, utilization[i]);
    energy += power * dt_s;
    // Lumped RC toward the steady-state temperature at this power.
    const double t_target = cfg_.ambient_k + power * c.type.rth_k_per_w;
    const double alpha = 1.0 - std::exp(-dt_s / c.type.thermal_tau_s);
    double t = c.temperature_k + alpha * (t_target - c.temperature_k);
    // Neighbour coupling (linear chain layout).
    double coupling = 0.0;
    if (i > 0) coupling += cores_[i - 1].temperature_k - c.temperature_k;
    if (i + 1 < cores_.size()) coupling += cores_[i + 1].temperature_k - c.temperature_k;
    t += cfg_.neighbour_coupling * alpha * coupling;
    new_temp_[i] = t;
  }
  for (std::size_t i = 0; i < cores_.size(); ++i) {
    Core& c = cores_[i];
    c.temperature_k = new_temp_[i];
    c.peak_temperature_k = std::max(c.peak_temperature_k, new_temp_[i]);
    c.min_temperature_k = std::min(c.min_temperature_k, new_temp_[i]);
    c.utilization = utilization[i];
  }
  return energy;
}

double Platform::capacity_gops(std::size_t core) const {
  assert(core < cores_.size());
  const Core& c = cores_[core];
  if (c.power_state != PowerState::kActive) return 0.0;
  return cfg_.ladder[c.vf_index].freq_ghz * c.type.perf_factor;
}

double Platform::max_freq_ghz() const {
  double hi = 0.0;
  for (const auto& vf : cfg_.ladder) hi = std::max(hi, vf.freq_ghz);
  return hi;
}

}  // namespace lore::os
