// Multi/many-core platform model for the OS-level reliability experiments
// (Sec. IV): heterogeneous cores with per-core DVFS (V-f levels), DPM power
// states, a lumped-RC thermal model with neighbour coupling, and power
// accounting (dynamic CV^2f + temperature-dependent leakage).
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace lore::os {

/// One DVFS operating point.
struct VfLevel {
  double voltage = 0.8;   // V
  double freq_ghz = 1.0;  // GHz
};

/// The standard five-level DVFS ladder used across experiments.
std::vector<VfLevel> default_vf_ladder();

enum class PowerState : std::uint8_t { kActive, kIdle, kSleep, kOff };

/// Static properties of a core type (heterogeneous platforms mix these).
struct CoreType {
  std::string name = "big";
  /// Instructions-per-cycle factor relative to the reference core.
  double perf_factor = 1.0;
  /// Effective switched capacitance (nF): dynamic power = ceff * V^2 * f.
  double ceff_nf = 1.0;
  /// Leakage at nominal V and 330 K (W); grows with V and temperature.
  double leakage_ref_w = 0.15;
  /// Architectural vulnerability factor scale of this microarchitecture
  /// (bigger, wider cores expose more state).
  double avf_factor = 1.0;
  /// Thermal resistance to ambient (K/W) and time constant (s).
  double rth_k_per_w = 25.0;
  double thermal_tau_s = 0.08;
};

CoreType make_big_core();
CoreType make_little_core();

/// Dynamic state of one core.
struct Core {
  CoreType type;
  std::size_t vf_index = 0;
  PowerState power_state = PowerState::kActive;
  double temperature_k = 330.0;
  /// Utilization of the last accounting interval in [0, 1].
  double utilization = 0.0;
  /// Peak temperature seen so far.
  double peak_temperature_k = 330.0;
  /// Lifetime thermal swing tracking (for thermal cycling).
  double min_temperature_k = 330.0;
};

struct PlatformConfig {
  double ambient_k = 318.0;
  /// Thermal coupling conductance between adjacent cores (fraction of the
  /// temperature difference equalized per tau).
  double neighbour_coupling = 0.12;
  std::vector<VfLevel> ladder = default_vf_ladder();
};

class Platform {
 public:
  Platform(std::vector<CoreType> cores, PlatformConfig cfg = {});

  std::size_t num_cores() const { return cores_.size(); }
  const Core& core(std::size_t i) const { return cores_[i]; }
  const std::vector<VfLevel>& ladder() const { return cfg_.ladder; }
  const PlatformConfig& config() const { return cfg_; }

  void set_vf(std::size_t core, std::size_t vf_index);
  void set_power_state(std::size_t core, PowerState state);

  /// Instantaneous power of a core at the given utilization (W).
  double core_power_w(std::size_t core, double utilization) const;

  /// Advance the thermal/power state by dt seconds with the given per-core
  /// utilizations (one per core); returns the energy consumed in this step
  /// (J). Does not allocate.
  double step(double dt_s, std::span<const double> utilization);

  /// Work capacity of a core in "reference-core gigacycles per second":
  /// freq * perf_factor; zero when not active.
  double capacity_gops(std::size_t core) const;

  double max_freq_ghz() const;

 private:
  std::vector<Core> cores_;
  PlatformConfig cfg_;
  /// step()'s new temperatures, one per core, kept between calls.
  std::vector<double> new_temp_;
};

}  // namespace lore::os
