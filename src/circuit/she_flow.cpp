#include "src/circuit/she_flow.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "src/common/parallel.hpp"

namespace lore::circuit {

std::vector<double> instance_she_rise(const Netlist& nl, const StaResult& sta,
                                      double she_reference_toggle_ghz) {
  assert(she_reference_toggle_ghz > 0.0);
  std::vector<double> rise(nl.num_instances(), 0.0);
  for (std::size_t i = 0; i < nl.num_instances(); ++i) {
    const auto& inst = nl.instance(i);
    const auto& cell = nl.library().cell(inst.cell_id);
    assert(cell.she_temperature.slew_points() > 0 && "library lacks SHE characterization");
    const double table_rise = cell.she_temperature.lookup(sta.instance_in_slew_ps[i],
                                                          sta.instance_load_ff[i]);
    rise[i] = table_rise * (inst.toggle_rate_ghz / she_reference_toggle_ghz);
  }
  return rise;
}

InstanceTableDelayModel characterize_instances(const Netlist& nl, double chip_temperature,
                                               const std::vector<double>& she_rise_k,
                                               const std::vector<double>& delta_vth,
                                               const Characterizer& characterizer,
                                               unsigned threads) {
  assert(she_rise_k.size() == nl.num_instances() && delta_vth.size() == nl.num_instances());
  std::vector<InstanceTableDelayModel::InstanceTables> tables(nl.num_instances());
  lore::parallel_for(nl.num_instances(), threads, [&](std::size_t i) {
    Cell scratch = nl.library().cell(nl.instance(i).cell_id);
    device::OperatingPoint op = nl.library().corner();
    op.temperature = chip_temperature + she_rise_k[i];
    op.delta_vth = delta_vth[i];
    characterizer.characterize_cell(scratch, op);
    tables[i].arcs = std::move(scratch.arcs);
  });
  return InstanceTableDelayModel(std::move(tables));
}

InstanceTableDelayModel build_exact_instance_library(const Netlist& nl,
                                                     const std::vector<double>& she_rise_k,
                                                     const Characterizer& characterizer,
                                                     const SheFlowConfig& cfg,
                                                     unsigned threads) {
  const std::vector<double> corner_dvth(nl.num_instances(), nl.library().corner().delta_vth);
  return characterize_instances(nl, cfg.chip_temperature, she_rise_k, corner_dvth,
                                characterizer, threads);
}

std::vector<double> MlLibraryCharacterizer::cell_features(const Cell& cell, double slew_ps,
                                                          double load_ff,
                                                          double temperature_k,
                                                          double delta_vth) {
  return {
      cell.drive_strength,
      static_cast<double>(cell.stack_depth),
      cell.stage.pulldown.width_um,
      cell.stage.pullup.width_um,
      static_cast<double>(cell.stage.pulldown.num_fins),
      cell.stage.parasitic_cap_ff,
      std::log(slew_ps),
      std::log(load_ff + 0.1),
      temperature_k - device::kT0,
      delta_vth * 100.0,
  };
}

void MlLibraryCharacterizer::train(const CellLibrary& lib, const Characterizer& characterizer,
                                   const device::OperatingPoint& base_op) {
  lore::Rng rng(cfg_.seed);
  const auto& grid = characterizer.config();
  const double slew_lo = grid.slew_axis_ps.front(), slew_hi = grid.slew_axis_ps.back();
  const double load_lo = grid.load_axis_ff.front(), load_hi = grid.load_axis_ff.back();

  ml::Matrix x, y;
  const std::size_t evals_before = characterizer.evaluations();
  for (std::size_t cell_id = 0; cell_id < lib.size(); ++cell_id) {
    const auto& cell = lib.cell(cell_id);
    for (std::size_t ts = 0; ts < cfg_.temperature_samples; ++ts) {
      device::OperatingPoint op = base_op;
      op.temperature = base_op.temperature + rng.uniform(0.0, cfg_.temperature_span);
      op.delta_vth = rng.uniform(0.0, 0.06);
      const std::size_t per_temp =
          std::max<std::size_t>(1, cfg_.samples_per_cell / cfg_.temperature_samples);
      for (std::size_t s = 0; s < per_temp; ++s) {
        // Log-uniform grid sampling matches the NLDM axis spacing.
        const double slew = std::exp(rng.uniform(std::log(slew_lo), std::log(slew_hi)));
        const double load = std::exp(rng.uniform(std::log(load_lo), std::log(load_hi)));
        const auto rise = characterizer.simulate(cell, true, slew, load, op);
        const auto fall = characterizer.simulate(cell, false, slew, load, op);
        x.push_row(cell_features(cell, slew, load, op.temperature, op.delta_vth));
        // Log targets: delays span orders of magnitude across cells/corners.
        const double t[] = {std::log(rise.delay_ps), std::log(fall.delay_ps),
                            std::log(rise.out_slew_ps), std::log(fall.out_slew_ps)};
        y.push_row(t);
      }
    }
  }
  training_evaluations_ = characterizer.evaluations() - evals_before;

  const ml::Matrix xs = scaler_.fit_transform(x);
  model_ = ml::MlpVectorRegressor(cfg_.mlp);
  model_.fit(xs, y);
  trained_ = true;
}

MlLibraryCharacterizer::Prediction MlLibraryCharacterizer::predict(
    const Cell& cell, double slew_ps, double load_ff, double temperature_k,
    double delta_vth) const {
  assert(trained_);
  auto features = cell_features(cell, slew_ps, load_ff, temperature_k, delta_vth);
  scaler_.transform_inplace(features);
  const auto out = model_.predict(features);
  return {std::exp(out[0]), std::exp(out[1]), std::exp(out[2]), std::exp(out[3])};
}

InstanceTableDelayModel MlLibraryCharacterizer::predict_instances(
    const Netlist& nl, double chip_temperature, const std::vector<double>& she_rise_k,
    const std::vector<double>& delta_vth, const CharacterizerConfig& grid) const {
  assert(trained_);
  assert(she_rise_k.size() == nl.num_instances() && delta_vth.size() == nl.num_instances());
  std::vector<InstanceTableDelayModel::InstanceTables> tables(nl.num_instances());
  for (std::size_t i = 0; i < nl.num_instances(); ++i) {
    const auto& cell = nl.library().cell(nl.instance(i).cell_id);
    const double temp = chip_temperature + she_rise_k[i];
    tables[i].arcs.reserve(cell.num_inputs());
    for (std::size_t pin = 0; pin < cell.num_inputs(); ++pin) {
      TimingArc arc;
      arc.input_pin = pin;
      arc.rise_delay = TimingTable(grid.slew_axis_ps, grid.load_axis_ff);
      arc.fall_delay = TimingTable(grid.slew_axis_ps, grid.load_axis_ff);
      arc.rise_slew = TimingTable(grid.slew_axis_ps, grid.load_axis_ff);
      arc.fall_slew = TimingTable(grid.slew_axis_ps, grid.load_axis_ff);
      const double pin_factor = 1.0 + 0.06 * static_cast<double>(pin);
      for (std::size_t si = 0; si < grid.slew_axis_ps.size(); ++si) {
        for (std::size_t li = 0; li < grid.load_axis_ff.size(); ++li) {
          const auto p = predict(cell, grid.slew_axis_ps[si], grid.load_axis_ff[li], temp,
                                 delta_vth[i]);
          arc.rise_delay.at(si, li) = p.rise_delay_ps * pin_factor;
          arc.fall_delay.at(si, li) = p.fall_delay_ps * pin_factor;
          arc.rise_slew.at(si, li) = p.rise_slew_ps;
          arc.fall_slew.at(si, li) = p.fall_slew_ps;
        }
      }
      tables[i].arcs.push_back(std::move(arc));
    }
  }
  return InstanceTableDelayModel(std::move(tables));
}

InstanceTableDelayModel MlLibraryCharacterizer::build_instance_library(
    const Netlist& nl, const std::vector<double>& she_rise_k, const SheFlowConfig& cfg,
    const CharacterizerConfig& grid) const {
  const std::vector<double> corner_dvth(nl.num_instances(), nl.library().corner().delta_vth);
  return predict_instances(nl, cfg.chip_temperature, she_rise_k, corner_dvth, grid);
}

double MlLibraryCharacterizer::validation_mape(const CellLibrary& lib,
                                               const Characterizer& characterizer,
                                               const device::OperatingPoint& base_op,
                                               std::size_t samples, std::uint64_t seed) const {
  assert(trained_ && samples > 0);
  lore::Rng rng(seed);
  const auto& grid = characterizer.config();
  double total = 0.0;
  for (std::size_t s = 0; s < samples; ++s) {
    const auto& cell = lib.cell(rng.uniform_index(lib.size()));
    device::OperatingPoint op = base_op;
    op.temperature = base_op.temperature + rng.uniform(0.0, cfg_.temperature_span);
    const double slew = std::exp(rng.uniform(std::log(grid.slew_axis_ps.front()),
                                             std::log(grid.slew_axis_ps.back())));
    const double load = std::exp(rng.uniform(std::log(grid.load_axis_ff.front()),
                                             std::log(grid.load_axis_ff.back())));
    const auto truth = characterizer.simulate(cell, true, slew, load, op);
    const auto pred = predict(cell, slew, load, op.temperature, op.delta_vth);
    total += std::abs(pred.rise_delay_ps - truth.delay_ps) / truth.delay_ps;
  }
  return total / static_cast<double>(samples);
}

GuardbandReport run_guardband_flow(const Netlist& nl, CellLibrary& lib,
                                   const Characterizer& characterizer,
                                   MlLibraryCharacterizer& ml_char, const SheFlowConfig& cfg,
                                   const StaEngine& sta) {
  GuardbandReport report;

  // Typical corner: chip temperature, no aging.
  device::OperatingPoint typical = lib.corner();
  typical.temperature = cfg.chip_temperature;
  typical.delta_vth = 0.0;
  characterizer.characterize_library(lib, typical);
  const auto sta_typical = sta.run(nl, LibraryDelayModel());
  report.typical_arrival_ps = sta_typical.worst_arrival_ps;

  // Conventional worst case: every cell at the max corner.
  device::OperatingPoint worst = typical;
  worst.temperature = cfg.worst_case_temperature;
  worst.delta_vth = cfg.worst_case_delta_vth;
  {
    // The netlist holds a pointer to `lib`, so characterize the worst corner
    // into it, run STA, then restore the typical tables by re-characterizing.
    CellLibrary worst_lib = lib;
    characterizer.characterize_library(worst_lib, worst);
    std::swap(lib, worst_lib);
    const auto sta_worst = sta.run(nl, LibraryDelayModel());
    report.worst_case_arrival_ps = sta_worst.worst_arrival_ps;
    std::swap(lib, worst_lib);
  }

  // SHE-aware: per-instance temperatures from the typical-corner STA.
  const auto she =
      instance_she_rise(nl, sta_typical, characterizer.config().she_reference_toggle_ghz);

  const std::size_t evals_before = characterizer.evaluations();
  const auto exact_model = build_exact_instance_library(nl, she, characterizer, cfg);
  report.exact_evaluations = characterizer.evaluations() - evals_before;
  report.she_exact_arrival_ps = sta.run(nl, exact_model).worst_arrival_ps;

  if (!ml_char.trained()) ml_char.train(lib, characterizer, typical);
  report.ml_training_evaluations = ml_char.training_evaluations();
  const auto ml_model = ml_char.build_instance_library(nl, she, cfg, characterizer.config());
  report.she_ml_arrival_ps = sta.run(nl, ml_model).worst_arrival_ps;
  return report;
}

}  // namespace lore::circuit
