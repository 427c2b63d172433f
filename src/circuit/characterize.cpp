#include "src/circuit/characterize.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/parallel.hpp"
#include "src/obs/obs.hpp"

namespace lore::circuit {
namespace {

/// Drain current of the switching network at output voltage v_out while the
/// input ramp sits at v_in, given the device's threshold `vth` and its
/// saturation current `i_sat` at gate voltage v_in. Velocity-saturated device
/// with a linear region near the rail; stacks divide the drive.
double drive_current(double i_sat, double vth, std::size_t stack_depth, double v_in,
                     double v_ds) {
  const double overdrive = v_in - vth;
  if (overdrive <= 0.0 || v_ds <= 0.0) return 0.0;
  // Linear region when V_ds < V_dsat ~ overdrive.
  const double v_dsat = std::max(1e-6, overdrive);
  if (v_ds < v_dsat) i_sat *= v_ds / v_dsat * (2.0 - v_ds / v_dsat);
  return i_sat / static_cast<double>(std::max<std::size_t>(1, stack_depth));
}

}  // namespace

device::StageTiming Characterizer::simulate(const Cell& cell, bool rising_output,
                                            double in_slew_ps, double load_ff,
                                            const device::OperatingPoint& op) const {
  evaluations_.add(1);
  assert(in_slew_ps > 0.0 && load_ff >= 0.0);
  const auto& stage = cell.stage;
  const device::Transistor dev(rising_output ? stage.pullup : stage.pulldown);
  const double c_farad = (load_ff + stage.parasitic_cap_ff) * 1e-15;
  const double vdd = op.vdd;

  // Input ramp: 10%-90% transition = in_slew_ps, so the full 0-100% ramp is
  // in_slew_ps / 0.8; input starts moving at t=0.
  const double ramp_ps = in_slew_ps / 0.8;
  const double t50_in = 0.5 * ramp_ps;

  double v_out = rising_output ? 0.0 : vdd;
  const double dt_s = cfg_.timestep_ps * 1e-12;
  double t_ps = 0.0;
  double t50_out = -1.0, t10 = -1.0, t90 = -1.0;

  // The threshold depends only on the corner, and the saturation current
  // only on the gate voltage, which is constant once the input ramp ends:
  // recompute i_sat (two pow calls) only when v_gate changes. Every value is
  // the same expression as an uncached step, so results are bit-identical.
  const double vth = dev.vth(op);
  device::OperatingPoint gate_op = op;
  gate_op.vdd = -1.0;  // no gate voltage seen yet
  double i_sat = 0.0;

  // Integrate until the output completes its swing (with a hard cap so
  // pathological corners terminate).
  const double t_max_ps = 1e6;
  while (t_ps < t_max_ps) {
    // Gate drive for the switching network: rising output means input fell
    // (PMOS gate pulled low) - model |Vgs| ramping 0 -> vdd over the ramp.
    const double ramp_pos = std::clamp(t_ps / ramp_ps, 0.0, 1.0);
    const double v_gate = vdd * ramp_pos;
    const double v_ds = rising_output ? vdd - v_out : v_out;
    if (v_gate != gate_op.vdd) {
      gate_op.vdd = v_gate;  // gate at the instantaneous input voltage
      i_sat = dev.saturation_current(gate_op);
    }
    const double i = drive_current(i_sat, vth, cell.stack_depth, v_gate, v_ds);
    const double dv = i * dt_s / c_farad;
    v_out += rising_output ? dv : -dv;
    v_out = std::clamp(v_out, 0.0, vdd);
    t_ps += cfg_.timestep_ps;

    const double frac = rising_output ? v_out / vdd : 1.0 - v_out / vdd;
    if (t10 < 0.0 && frac >= 0.1) t10 = t_ps;
    if (t50_out < 0.0 && frac >= 0.5) t50_out = t_ps;
    if (frac >= 0.9) {
      t90 = t_ps;
      break;
    }
  }
  device::StageTiming timing;
  // Unfinished transitions clamp at the cap (grossly undersized drive).
  if (t50_out < 0.0) t50_out = t_max_ps;
  if (t10 < 0.0) t10 = t_max_ps;
  if (t90 < 0.0) t90 = t_max_ps;
  timing.delay_ps = t50_out - t50_in;
  timing.out_slew_ps = t90 - t10;
  return timing;
}

double Characterizer::she_rise(const Cell& cell, double in_slew_ps, double load_ff,
                               const device::OperatingPoint& op) const {
  const device::GateStage stage(cell.stage);
  const device::ActivityProfile activity{.toggle_rate_ghz = cfg_.she_reference_toggle_ghz,
                                         .in_slew_ps = in_slew_ps,
                                         .load_ff = load_ff};
  return she_.temperature_rise(stage, activity, op);
}

void Characterizer::characterize_cell(Cell& cell, const device::OperatingPoint& op,
                                      const lore::CancelToken* cancel) const {
  const obs::ScopedTimer timer(cell_us_);
  const auto& slews = cfg_.slew_axis_ps;
  const auto& loads = cfg_.load_axis_ff;
  cell.arcs.clear();
  for (std::size_t pin = 0; pin < cell.num_inputs(); ++pin) {
    TimingArc arc;
    arc.input_pin = pin;
    arc.rise_delay = TimingTable(slews, loads);
    arc.fall_delay = TimingTable(slews, loads);
    arc.rise_slew = TimingTable(slews, loads);
    arc.fall_slew = TimingTable(slews, loads);
    // Later pins are electrically closer to the output in the stack: small
    // deterministic derating distinguishes the arcs.
    const double pin_factor = 1.0 + 0.06 * static_cast<double>(pin);
    for (std::size_t si = 0; si < slews.size(); ++si) {
      if (cancel) cancel->throw_if_cancelled();
      for (std::size_t li = 0; li < loads.size(); ++li) {
        const auto rise = simulate(cell, true, slews[si], loads[li], op);
        const auto fall = simulate(cell, false, slews[si], loads[li], op);
        arc.rise_delay.at(si, li) = rise.delay_ps * pin_factor;
        arc.fall_delay.at(si, li) = fall.delay_ps * pin_factor;
        arc.rise_slew.at(si, li) = rise.out_slew_ps;
        arc.fall_slew.at(si, li) = fall.out_slew_ps;
      }
    }
    cell.arcs.push_back(std::move(arc));
  }
  // SHE table (Fig. 3 upper flow): temperature per grid condition.
  cell.she_temperature = TimingTable(slews, loads);
  for (std::size_t si = 0; si < slews.size(); ++si)
    for (std::size_t li = 0; li < loads.size(); ++li)
      cell.she_temperature.at(si, li) = she_rise(cell, slews[si], loads[li], op);
}

void Characterizer::characterize_library(CellLibrary& lib,
                                         const device::OperatingPoint& op,
                                         unsigned threads) const {
  LORE_OBS_SPAN(span, "circuit.characterize_library");
  LORE_OBS_TIMER(timer, "characterize.library_us");
  LORE_OBS_COUNT("characterize.cells", lib.size());
  // Each worker fills a disjoint cell's tables; the grids themselves are
  // deterministic functions of (cell, corner), so any schedule produces
  // bit-identical libraries.
  lore::parallel_for(lib.size(), threads,
                     [&](std::size_t i) { characterize_cell(lib.cell(i), op); });
  lib.set_corner(op);
}

namespace {

/// One cell's characterization result, flattened in a canonical order: per
/// arc the four tables' row-major values (pin factors already baked in), then
/// the SHE table. Pure doubles — the table axes are reconstructed from the
/// Characterizer config on apply.
struct CellTablesRecord {
  std::vector<double> values;
};

struct CellTablesCodec {
  static void encode(lore::ByteWriter& w, const CellTablesRecord& r) {
    w.put_u64(r.values.size());
    for (const double v : r.values) w.put_f64(v);
  }
  static CellTablesRecord decode(lore::ByteReader& r) {
    CellTablesRecord rec;
    const std::uint64_t n = r.get_u64();
    rec.values.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) rec.values.push_back(r.get_f64());
    return rec;
  }
};

void append_values(std::vector<double>& out, const TimingTable& t) {
  out.insert(out.end(), t.values().begin(), t.values().end());
}

/// Library/corner/config fingerprint folded into the campaign identity: any
/// change to the grid axes, timestep, corner, or cell set must invalidate a
/// checkpoint, because all of them change the produced tables.
std::string characterize_domain(const CellLibrary& lib, const device::OperatingPoint& op,
                                const CharacterizerConfig& cfg) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  const auto mix_f64 = [&mix](double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    mix(bits);
  };
  mix(lib.size());
  for (std::size_t i = 0; i < lib.size(); ++i) {
    const Cell& cell = lib.cell(i);
    mix(static_cast<std::uint64_t>(cell.function));
    mix(cell.num_inputs());
    mix(cell.stack_depth);
    mix_f64(cell.drive_strength);
  }
  for (const double v : cfg.slew_axis_ps) mix_f64(v);
  for (const double v : cfg.load_axis_ff) mix_f64(v);
  mix_f64(cfg.timestep_ps);
  mix_f64(cfg.she_reference_toggle_ghz);
  mix_f64(op.vdd);
  mix_f64(op.temperature);
  mix_f64(op.delta_vth);
  char buf[64];
  std::snprintf(buf, sizeof buf, "circuit.characterize/%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

lore::CampaignReport Characterizer::characterize_library(
    CellLibrary& lib, const device::OperatingPoint& op,
    const lore::CampaignSpec& spec) const {
  LORE_OBS_SPAN(span, "circuit.characterize_library");
  LORE_OBS_TIMER(timer, "characterize.library_us");
  LORE_OBS_COUNT("characterize.cells", lib.size());

  lore::CampaignSpec s = spec;
  s.trials = lib.size();  // trial t characterizes cell t — the grid IS the campaign
  if (s.domain.empty()) s.domain = characterize_domain(lib, op, cfg_);

  auto result = lore::run_campaign<CellTablesRecord, CellTablesCodec>(
      s, [&](std::size_t t, lore::Rng&, const lore::CancelToken& cancel) {
        Cell cell = lib.cell(t);  // work on a copy; apply only completed cells
        characterize_cell(cell, op, &cancel);
        CellTablesRecord rec;
        for (const TimingArc& arc : cell.arcs) {
          append_values(rec.values, arc.rise_delay);
          append_values(rec.values, arc.fall_delay);
          append_values(rec.values, arc.rise_slew);
          append_values(rec.values, arc.fall_slew);
        }
        append_values(rec.values, cell.she_temperature);
        return rec;
      });

  const auto& slews = cfg_.slew_axis_ps;
  const auto& loads = cfg_.load_axis_ff;
  const std::size_t grid = slews.size() * loads.size();
  for (std::size_t t = 0; t < result.records.size(); ++t) {
    if (result.status[t] != lore::TrialStatus::kOk) continue;
    Cell& cell = lib.cell(t);
    const auto& vals = result.records[t].values;
    assert(vals.size() == grid * (4 * cell.num_inputs() + 1));
    std::size_t off = 0;
    const auto take_table = [&](TimingTable& table) {
      table = TimingTable(slews, loads);
      std::copy_n(vals.begin() + static_cast<std::ptrdiff_t>(off), grid,
                  table.values().begin());
      off += grid;
    };
    cell.arcs.clear();
    for (std::size_t pin = 0; pin < cell.num_inputs(); ++pin) {
      TimingArc arc;
      arc.input_pin = pin;
      take_table(arc.rise_delay);
      take_table(arc.fall_delay);
      take_table(arc.rise_slew);
      take_table(arc.fall_slew);
      cell.arcs.push_back(std::move(arc));
    }
    take_table(cell.she_temperature);
  }
  lib.set_corner(op);
  return result.report;
}

}  // namespace lore::circuit
