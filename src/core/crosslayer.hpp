// Concrete cross-layer environment for the Fig. 1 loop: the agent controls a
// core's V-f level under a stochastically varying workload; the reward fuses
// models from three abstraction layers — energy (circuit), soft-error rate
// (architecture), and wear-out MTTF (device) — through the resiliency model
// registry. This is the "run-time cross-layer reliability improvement" the
// paper calls out as the key open challenge (Sec. VI-A), built from LORE's
// own substrates.
#pragma once

#include "src/core/framework.hpp"
#include "src/device/lifetime.hpp"
#include "src/os/platform.hpp"
#include "src/os/ser.hpp"

namespace lore::core {

struct CrossLayerConfig {
  std::size_t temp_bins = 6;
  std::size_t load_bins = 4;
  double temp_lo_k = 315.0;
  double temp_hi_k = 400.0;
  double temp_limit_k = 365.0;
  /// Reward weights over the layer models.
  double w_energy = 1.0;
  double w_ser = 2.0;
  double w_mttf = 1.5;
  double w_temp = 6.0;
  /// Workload arrival: demanded utilization random walk.
  double load_volatility = 0.15;
  double control_dt_s = 0.05;
  std::uint64_t seed = 101;
};

class CrossLayerEnvironment final : public ReliabilityEnvironment {
 public:
  explicit CrossLayerEnvironment(CrossLayerConfig cfg = {});
  /// The registered models capture `this` and the environment holds pointers
  /// into its own registry, so a copy would evaluate the original's state.
  CrossLayerEnvironment(const CrossLayerEnvironment&) = delete;
  CrossLayerEnvironment& operator=(const CrossLayerEnvironment&) = delete;

  std::size_t num_states() const override;
  std::size_t num_actions() const override { return platform_.ladder().size(); }
  std::size_t reset() override;
  StepResult step(std::size_t action) override;
  std::string name() const override { return "crosslayer-vf"; }

  const ResiliencyModelRegistry& registry() const { return registry_; }
  double temperature_k() const { return platform_.core(0).temperature_k; }
  double demanded_load() const { return demanded_load_; }

 private:
  std::size_t encode() const;

  CrossLayerConfig cfg_;
  os::Platform platform_;
  os::SerModel ser_{};
  ResiliencyModelRegistry registry_;
  /// The energy / SER / MTTF models, resolved once in the constructor so a
  /// step does no name lookup.
  const ResiliencyModelRegistry::Model* energy_model_ = nullptr;
  const ResiliencyModelRegistry::Model* ser_model_ = nullptr;
  const ResiliencyModelRegistry::Model* mttf_model_ = nullptr;
  lore::Rng rng_;
  double demanded_load_ = 0.5;
};

}  // namespace lore::core
