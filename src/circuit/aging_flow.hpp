// Workload-dependent circuit aging estimation ([11],[12] and the HDC aging
// work [18], Sec. II): each instance ages according to its own stress — duty
// cycle, switching activity, and local temperature (chip + its own SHE) — so
// per-instance delta-Vth varies widely across a circuit. The flow mirrors
// the SHE flow: exact per-instance characterization at the aged threshold, or
// the ML library characterizer (whose feature vector already includes
// delta-Vth) regenerating aged tables by inference.
#pragma once

#include "src/circuit/she_flow.hpp"
#include "src/device/aging.hpp"

namespace lore::circuit {

struct AgingFlowConfig {
  /// Mission lifetime to evaluate (years).
  double years = 7.0;
  /// Chip temperature on top of which per-instance SHE adds (K).
  double chip_temperature = 330.0;
  /// Clock the activity duty factor is measured against (GHz).
  double clock_ghz = 1.0;
};

/// Per-instance threshold shift after the mission lifetime: stress comes
/// from the instance's own activity and its SHE-elevated temperature.
std::vector<double> instance_aging_dvth(const Netlist& nl,
                                        const std::vector<double>& she_rise_k,
                                        const device::AgingModel& model,
                                        const AgingFlowConfig& cfg);

/// Exact aged per-instance library: transient characterization at each
/// instance's (temperature, delta-Vth), across `threads` workers (0 = all
/// cores, 1 = serial; see `characterize_instances`).
InstanceTableDelayModel build_aged_instance_library(const Netlist& nl,
                                                    const std::vector<double>& she_rise_k,
                                                    const std::vector<double>& dvth,
                                                    const Characterizer& characterizer,
                                                    const AgingFlowConfig& cfg,
                                                    unsigned threads = 0);

/// ML-generated aged library (zero transient sims after training).
InstanceTableDelayModel build_aged_instance_library_ml(
    const MlLibraryCharacterizer& ml, const Netlist& nl,
    const std::vector<double>& she_rise_k, const std::vector<double>& dvth,
    const AgingFlowConfig& cfg, const CharacterizerConfig& grid);

struct AgingGuardbandReport {
  double fresh_arrival_ps = 0.0;
  double aged_exact_arrival_ps = 0.0;
  double aged_ml_arrival_ps = 0.0;
  /// ML library evaluated at dvth = 0 (same SHE temperatures): the ML-side
  /// fresh baseline. Systematic ML bias cancels in aged_ml / fresh_ml, which
  /// is how an ML signoff flow derives *relative* guardbands.
  double fresh_ml_arrival_ps = 0.0;
  /// Conventional static aging corner: every cell at the worst dvth.
  double worst_corner_arrival_ps = 0.0;
  double max_dvth = 0.0;
  double mean_dvth = 0.0;

  double exact_aging_guardband() const { return aged_exact_arrival_ps / fresh_arrival_ps; }
  double ml_aging_guardband() const { return aged_ml_arrival_ps / fresh_ml_arrival_ps; }
  double worst_corner_guardband() const { return worst_corner_arrival_ps / fresh_arrival_ps; }
};

/// Full comparison at one lifetime point. The library must be characterized
/// at the typical (fresh) corner; `ml` must be trained.
AgingGuardbandReport run_aging_flow(const Netlist& nl, CellLibrary& lib,
                                    const Characterizer& characterizer,
                                    const MlLibraryCharacterizer& ml,
                                    const device::AgingModel& model,
                                    const AgingFlowConfig& cfg, const StaEngine& sta);

}  // namespace lore::circuit
