// E16 / Sec. II ([11],[12],[18]): workload-dependent circuit aging. Every
// instance ages by its own stress (activity, duty, SHE-elevated temperature);
// per-instance aged STA gives a far tighter end-of-life guardband than the
// static worst-case aging corner — and the ML library regenerates aged
// timing tables without any transient simulation.
#include <algorithm>
#include <optional>

#include "bench/bench_util.hpp"
#include "src/circuit/aging_flow.hpp"
#include "src/common/parallel.hpp"

namespace {

using namespace lore;
using namespace lore::circuit;

/// True when two per-instance libraries hold bit-identical tables.
bool same_tables(const InstanceTableDelayModel& a, const InstanceTableDelayModel& b) {
  const auto same = [](const TimingTable& x, const TimingTable& y) {
    return std::ranges::equal(x.values(), y.values());
  };
  if (a.tables().size() != b.tables().size()) return false;
  for (std::size_t i = 0; i < a.tables().size(); ++i) {
    const auto& xa = a.tables()[i].arcs;
    const auto& ya = b.tables()[i].arcs;
    if (xa.size() != ya.size()) return false;
    for (std::size_t k = 0; k < xa.size(); ++k)
      if (!same(xa[k].rise_delay, ya[k].rise_delay) ||
          !same(xa[k].fall_delay, ya[k].fall_delay) ||
          !same(xa[k].rise_slew, ya[k].rise_slew) || !same(xa[k].fall_slew, ya[k].fall_slew))
        return false;
  }
  return true;
}

/// The exact aged library is one transient characterization per instance;
/// instances are independent, so the build runs on every core.
void report_instance_build(const Netlist& nl, const Characterizer& characterizer,
                           const StaEngine& sta, const AgingFlowConfig& cfg) {
  bench::print_header(
      "Aged per-instance library build",
      "Exact aged library of the same netlist (one characterize_cell per instance at "
      "its own temperature and delta-Vth), serial vs all cores, best of 5.");
  const auto she = instance_she_rise(nl, sta.run(nl, LibraryDelayModel()),
                                     characterizer.config().she_reference_toggle_ghz);
  const auto dvth = instance_aging_dvth(nl, she, device::AgingModel{}, cfg);
  const auto n = static_cast<double>(nl.num_instances());
  std::optional<InstanceTableDelayModel> serial, parallel;
  const double serial_s = bench::best_of_seconds(5, [&] {
    serial.emplace(build_aged_instance_library(nl, she, dvth, characterizer, cfg, 1));
  });
  const double parallel_s = bench::best_of_seconds(5, [&] {
    parallel.emplace(build_aged_instance_library(nl, she, dvth, characterizer, cfg, 0));
  });
  Table t({"threads", "workers", "instances", "seconds", "instances_per_s",
           "speedup_vs_serial", "bit_identical"});
  t.add_row({"1", "1", std::to_string(nl.num_instances()), fmt_sig(serial_s, 4),
             fmt_sig(n / serial_s, 4), "1", "yes"});
  t.add_row({"all", std::to_string(lore::resolve_threads(0, nl.num_instances())),
             std::to_string(nl.num_instances()), fmt_sig(parallel_s, 4),
             fmt_sig(n / parallel_s, 4), fmt_sig(serial_s / parallel_s, 3),
             same_tables(*serial, *parallel) ? "yes" : "NO"});
  bench::print_table(t);
  bench::print_note(
      "Expected: bit_identical=yes; the all-cores row scales with the core count "
      "(instances are independent grid sweeps, each writing its own slot).");
}

void report() {
  bench::print_header("Workload-dependent aging guardbands",
                      "Per-instance delta-Vth from activity/duty/SHE-elevated "
                      "temperature; aged per-instance STA vs the static worst corner.");
  CellLibrary lib = make_skeleton_library("lore-tech");
  Characterizer characterizer(
      CharacterizerConfig{.slew_axis_ps = {10.0, 40.0, 160.0},
                          .load_axis_ff = {1.0, 4.0, 16.0},
                          .timestep_ps = 0.3},
      device::SelfHeatingModel{});
  AgingFlowConfig cfg{};
  device::OperatingPoint typical{};
  typical.temperature = cfg.chip_temperature;
  characterizer.characterize_library(lib, typical);
  auto nl = generate_core_like(lib, CoreLikeConfig{.pipeline_stages = 2,
                                                   .regs_per_stage = 8,
                                                   .gates_per_stage = 70});
  StaEngine sta;
  MlLibraryCharacterizer ml(MlCharacterizerConfig{
      .samples_per_cell = 80, .temperature_samples = 5,
      .mlp = {.hidden = {48, 48}, .learning_rate = 2e-3, .epochs = 180, .batch_size = 32}});
  ml.train(lib, characterizer, typical);
  device::AgingModel model;

  Table t({"lifetime_years", "exact_guardband", "ml_guardband", "worst_corner_guardband",
           "mean_dvth_mV", "max_dvth_mV"});
  for (double years : {1.0, 3.0, 7.0, 10.0}) {
    AgingFlowConfig point = cfg;
    point.years = years;
    const auto r = run_aging_flow(nl, lib, characterizer, ml, model, point, sta);
    t.add_numeric_row({years, r.exact_aging_guardband(), r.ml_aging_guardband(),
                       r.worst_corner_guardband(), r.mean_dvth * 1000.0,
                       r.max_dvth * 1000.0},
                      5);
  }
  bench::print_table(t);
  bench::print_note(
      "Expected: aging guardbands grow slowly with lifetime (power-law aging) and "
      "stay well below the static worst corner (which puts max dvth at max "
      "temperature on every cell); the ML guardband ratio tracks the exact one "
      "closely because systematic characterizer bias cancels in the ratio.");
  report_instance_build(nl, characterizer, sta, cfg);
}

void BM_AgingDvth(benchmark::State& state) {
  CellLibrary lib = make_skeleton_library("lore-tech");
  Characterizer characterizer(CharacterizerConfig{.timestep_ps = 0.4},
                              device::SelfHeatingModel{});
  device::OperatingPoint typical{};
  characterizer.characterize_library(lib, typical);
  const auto nl = generate_core_like(lib, CoreLikeConfig{.pipeline_stages = 2,
                                                         .regs_per_stage = 6,
                                                         .gates_per_stage = 40});
  StaEngine sta;
  const auto timing = sta.run(nl, LibraryDelayModel());
  const auto she = instance_she_rise(nl, timing, 1.0);
  device::AgingModel model;
  const AgingFlowConfig cfg{};
  for (auto _ : state)
    benchmark::DoNotOptimize(instance_aging_dvth(nl, she, model, cfg));
}
BENCHMARK(BM_AgingDvth)->Unit(benchmark::kMicrosecond);

}  // namespace

LORE_BENCH_MAIN(report)
