#include "src/circuit/aging_flow.hpp"

#include <algorithm>
#include <cassert>

namespace lore::circuit {

std::vector<double> instance_aging_dvth(const Netlist& nl,
                                        const std::vector<double>& she_rise_k,
                                        const device::AgingModel& model,
                                        const AgingFlowConfig& cfg) {
  assert(she_rise_k.size() == nl.num_instances());
  std::vector<double> dvth(nl.num_instances(), 0.0);
  for (std::size_t i = 0; i < nl.num_instances(); ++i) {
    const auto& inst = nl.instance(i);
    device::StressCondition stress;
    stress.vdd = nl.library().corner().vdd;
    stress.temperature = cfg.chip_temperature + she_rise_k[i];
    // Duty factor: fraction of cycles the cell holds a stressing input.
    stress.duty_cycle = std::clamp(0.3 + 0.5 * inst.toggle_rate_ghz / cfg.clock_ghz, 0.0, 1.0);
    stress.toggle_rate_ghz = inst.toggle_rate_ghz;
    stress.years = cfg.years;
    dvth[i] = model.delta_vth(stress);
  }
  return dvth;
}

InstanceTableDelayModel build_aged_instance_library(const Netlist& nl,
                                                    const std::vector<double>& she_rise_k,
                                                    const std::vector<double>& dvth,
                                                    const Characterizer& characterizer,
                                                    const AgingFlowConfig& cfg,
                                                    unsigned threads) {
  return characterize_instances(nl, cfg.chip_temperature, she_rise_k, dvth, characterizer,
                                threads);
}

InstanceTableDelayModel build_aged_instance_library_ml(
    const MlLibraryCharacterizer& ml, const Netlist& nl,
    const std::vector<double>& she_rise_k, const std::vector<double>& dvth,
    const AgingFlowConfig& cfg, const CharacterizerConfig& grid) {
  return ml.predict_instances(nl, cfg.chip_temperature, she_rise_k, dvth, grid);
}

AgingGuardbandReport run_aging_flow(const Netlist& nl, CellLibrary& lib,
                                    const Characterizer& characterizer,
                                    const MlLibraryCharacterizer& ml,
                                    const device::AgingModel& model,
                                    const AgingFlowConfig& cfg, const StaEngine& sta) {
  assert(ml.trained());
  AgingGuardbandReport report;

  // Fresh timing + per-instance SHE context.
  const auto sta_fresh = sta.run(nl, LibraryDelayModel());
  report.fresh_arrival_ps = sta_fresh.worst_arrival_ps;
  const auto she =
      instance_she_rise(nl, sta_fresh, characterizer.config().she_reference_toggle_ghz);

  const auto dvth = instance_aging_dvth(nl, she, model, cfg);
  for (double v : dvth) {
    report.max_dvth = std::max(report.max_dvth, v);
    report.mean_dvth += v;
  }
  report.mean_dvth /= static_cast<double>(dvth.size());

  const auto exact = build_aged_instance_library(nl, she, dvth, characterizer, cfg);
  report.aged_exact_arrival_ps = sta.run(nl, exact).worst_arrival_ps;

  const auto fast =
      build_aged_instance_library_ml(ml, nl, she, dvth, cfg, characterizer.config());
  report.aged_ml_arrival_ps = sta.run(nl, fast).worst_arrival_ps;

  // ML fresh baseline: same flow with zero threshold shift.
  const std::vector<double> zero_dvth(nl.num_instances(), 0.0);
  const auto fresh_ml =
      build_aged_instance_library_ml(ml, nl, she, zero_dvth, cfg, characterizer.config());
  report.fresh_ml_arrival_ps = sta.run(nl, fresh_ml).worst_arrival_ps;

  // Conventional static aging corner: the worst observed dvth everywhere at
  // the worst observed temperature.
  {
    double max_temp = 0.0;
    for (double t : she) max_temp = std::max(max_temp, t);
    device::OperatingPoint worst = lib.corner();
    worst.temperature = cfg.chip_temperature + max_temp;
    worst.delta_vth = report.max_dvth;
    CellLibrary worst_lib = lib;
    characterizer.characterize_library(worst_lib, worst);
    std::swap(lib, worst_lib);
    report.worst_corner_arrival_ps = sta.run(nl, LibraryDelayModel()).worst_arrival_ps;
    std::swap(lib, worst_lib);
  }
  return report;
}

}  // namespace lore::circuit
