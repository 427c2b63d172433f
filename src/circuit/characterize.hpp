// Standard-cell characterization by numerical transient simulation — LORE's
// stand-in for the SPICE characterization loop of Fig. 3. Each grid point
// integrates the output-node ODE with the alpha-power-law device model, so
// characterizing a full library is genuinely expensive; that cost is what the
// ML-based characterizer ([9], E2) removes.
#pragma once

#include <cstddef>

#include "src/circuit/liberty.hpp"
#include "src/common/campaign.hpp"
#include "src/device/selfheat.hpp"
#include "src/device/transistor.hpp"
#include "src/obs/metrics.hpp"

namespace lore::circuit {

struct CharacterizerConfig {
  std::vector<double> slew_axis_ps = default_slew_axis_ps();
  std::vector<double> load_axis_ff = default_load_axis_ff();
  /// Transient integration timestep (ps). Smaller = more SPICE-like cost.
  double timestep_ps = 0.05;
  /// Toggle rate assumed when filling the library's SHE temperature tables;
  /// instances scale it by their own activity.
  double she_reference_toggle_ghz = 1.0;
};

class Characterizer {
 public:
  Characterizer(CharacterizerConfig cfg, device::SelfHeatingModel she_model)
      : cfg_(std::move(cfg)),
        she_(she_model),
        evaluations_(obs::MetricsRegistry::global().counter("characterize.evaluations")),
        cell_us_(obs::MetricsRegistry::global().histogram("characterize.cell_us")) {}

  const CharacterizerConfig& config() const { return cfg_; }

  /// Transient simulation of one switching event. Returns 50-50 delay and
  /// 10-90 output slew (ps).
  device::StageTiming simulate(const Cell& cell, bool rising_output, double in_slew_ps,
                               double load_ff, const device::OperatingPoint& op) const;

  /// Fill all timing arcs and the SHE table of one cell at the given corner.
  /// When `cancel` is given it is polled once per slew row, so a library
  /// campaign's per-trial deadline can interrupt a pathological grid sweep.
  void characterize_cell(Cell& cell, const device::OperatingPoint& op,
                         const lore::CancelToken* cancel = nullptr) const;

  /// Characterize every cell of the library and record the corner. Cells are
  /// independent grid sweeps, so they run across `threads` workers
  /// (0 = hardware_concurrency, 1 = the legacy serial path); the tables are
  /// bit-identical for every thread count.
  void characterize_library(CellLibrary& lib, const device::OperatingPoint& op,
                            unsigned threads = 0) const;

  /// Spec-driven library characterization on the resilient campaign runtime:
  /// one trial per cell (spec.trials is overridden to lib.size()), each trial
  /// producing the cell's flattened tables, with checkpoint/resume and
  /// per-cell deadlines. Cells whose trial completed are written back into
  /// `lib`; the rest keep their prior tables (see the returned report). The
  /// grids are deterministic functions of (cell, corner), so the resulting
  /// library is bit-identical to `characterize_library` above whenever the
  /// report is complete.
  lore::CampaignReport characterize_library(CellLibrary& lib,
                                            const device::OperatingPoint& op,
                                            const lore::CampaignSpec& spec) const;

  /// SHE temperature rise (K) of the cell at one grid condition and the
  /// reference toggle rate.
  double she_rise(const Cell& cell, double in_slew_ps, double load_ff,
                  const device::OperatingPoint& op) const;

  /// Total transient simulations performed so far (cost/speed metric). Reads
  /// the process-wide `characterize.evaluations` counter — the evaluation
  /// budget accounting of the Fig. 3 flows (she_flow, benches) consumes it as
  /// before/after deltas, and the observability exports see the same number.
  std::size_t evaluations() const { return evaluations_.value(); }
  void reset_evaluations() { evaluations_.reset(); }

 private:
  CharacterizerConfig cfg_;
  device::SelfHeatingModel she_;
  /// Resolved once; concurrent cell workers bump it lock-free. Counts are
  /// functional outputs (evaluation budgets), so this is not gated on
  /// obs::enabled().
  obs::Counter& evaluations_;
  /// Per-cell wall time, resolved once so concurrent cell workers skip the
  /// registry's locked name lookup; the timer honours obs::enabled().
  obs::Histogram& cell_us_;
};

}  // namespace lore::circuit
