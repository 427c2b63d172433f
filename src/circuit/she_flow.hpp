// The Fig. 3 flow of the paper, end to end:
//
//  upper path: SHE characterization -> SHE values ride the SDF format ->
//              per-instance SHE temperatures in the circuit (Fig. 2 data);
//  lower path: a circuit-specific library with one entry per *instance*,
//              characterized at that instance's own SHE temperature. Exact
//              (transient-sim) generation is infeasible at scale, so an ML
//              model trained once on sampled characterizations regenerates
//              thousands of instance tables in seconds ([9]).
//
// The result: SHE-aware STA with guardbands strictly tighter than the
// worst-case corner while still covering the real per-instance temperatures.
#pragma once

#include <cstdint>

#include "src/circuit/characterize.hpp"
#include "src/circuit/sta.hpp"
#include "src/ml/mlp.hpp"

namespace lore::circuit {

struct SheFlowConfig {
  /// Chip (ambient-die) temperature on top of which SHE rises (K).
  double chip_temperature = 330.0;
  /// Worst-case corner temperature used by the conventional flow (K).
  double worst_case_temperature = 420.0;
  /// Aging threshold shift applied at the worst-case corner (V).
  double worst_case_delta_vth = 0.05;
};

/// Step 1 (upper Fig. 3 path): per-instance SHE temperature rise above chip
/// temperature, from the cell's SHE table at the instance's STA-derived slew
/// and load, scaled by the instance's switching activity.
std::vector<double> instance_she_rise(const Netlist& nl, const StaResult& sta,
                                      double she_reference_toggle_ghz);

/// Exact per-instance library: instance i's cell characterized by transient
/// simulation at the netlist corner's supply, temperature chip_temperature +
/// she_rise_k[i] and threshold shift delta_vth[i]. Instances are independent
/// grid sweeps, so they run across `threads` workers (0 = all cores, 1 =
/// serial), each filling its own slot; the tables are bit-identical for
/// every thread count.
InstanceTableDelayModel characterize_instances(const Netlist& nl, double chip_temperature,
                                               const std::vector<double>& she_rise_k,
                                               const std::vector<double>& delta_vth,
                                               const Characterizer& characterizer,
                                               unsigned threads = 0);

/// Step 2a (lower path, exact): instance-specific tables characterized by
/// transient simulation at each instance's own temperature (and the corner's
/// threshold shift). Exhaustive and slow — the scaling problem the paper
/// calls "practically infeasible".
InstanceTableDelayModel build_exact_instance_library(const Netlist& nl,
                                                     const std::vector<double>& she_rise_k,
                                                     const Characterizer& characterizer,
                                                     const SheFlowConfig& cfg,
                                                     unsigned threads = 0);

struct MlCharacterizerConfig {
  /// Temperatures sampled during training span chip temp .. chip+span (K).
  double temperature_span = 120.0;
  /// Grid conditions sampled per cell per temperature sample.
  std::size_t samples_per_cell = 60;
  std::size_t temperature_samples = 6;
  ml::MlpConfig mlp{.hidden = {48, 48}, .learning_rate = 3e-3, .epochs = 120,
                    .batch_size = 32};
  std::uint64_t seed = 59;
};

/// Step 2b (lower path, ML): learn (cell electrical features, slew, load,
/// temperature) -> (rise/fall delay, rise/fall slew) from a sampled set of
/// transient characterizations; then emit instance tables by inference.
class MlLibraryCharacterizer {
 public:
  explicit MlLibraryCharacterizer(MlCharacterizerConfig cfg = {}) : cfg_(cfg) {}

  /// Train on the library using the transient characterizer as ground truth.
  void train(const CellLibrary& lib, const Characterizer& characterizer,
             const device::OperatingPoint& base_op);

  bool trained() const { return trained_; }
  /// Transient simulations consumed during training (cost accounting).
  std::size_t training_evaluations() const { return training_evaluations_; }

  /// Predict the four timing numbers for one condition.
  struct Prediction {
    double rise_delay_ps, fall_delay_ps, rise_slew_ps, fall_slew_ps;
  };
  Prediction predict(const Cell& cell, double slew_ps, double load_ff,
                     double temperature_k, double delta_vth) const;

  /// Per-instance library by inference, the ML twin of
  /// `characterize_instances`: instance i's tables on `grid` at temperature
  /// chip_temperature + she_rise_k[i] and threshold shift delta_vth[i].
  InstanceTableDelayModel predict_instances(const Netlist& nl, double chip_temperature,
                                            const std::vector<double>& she_rise_k,
                                            const std::vector<double>& delta_vth,
                                            const CharacterizerConfig& grid) const;

  /// Generate the full per-instance library by inference (fast path) at the
  /// corner's threshold shift.
  InstanceTableDelayModel build_instance_library(const Netlist& nl,
                                                 const std::vector<double>& she_rise_k,
                                                 const SheFlowConfig& cfg,
                                                 const CharacterizerConfig& grid) const;

  /// Held-out relative error of the model on fresh conditions.
  double validation_mape(const CellLibrary& lib, const Characterizer& characterizer,
                         const device::OperatingPoint& base_op, std::size_t samples,
                         std::uint64_t seed) const;

 private:
  static std::vector<double> cell_features(const Cell& cell, double slew_ps, double load_ff,
                                           double temperature_k, double delta_vth);

  MlCharacterizerConfig cfg_;
  ml::MlpVectorRegressor model_{};
  ml::StandardScaler scaler_;
  bool trained_ = false;
  std::size_t training_evaluations_ = 0;
};

/// Full-flow guardband comparison (E2): worst arrival times under the
/// typical corner, the conventional worst-case corner, and the two SHE-aware
/// instance libraries.
struct GuardbandReport {
  double typical_arrival_ps = 0.0;
  double worst_case_arrival_ps = 0.0;
  double she_exact_arrival_ps = 0.0;
  double she_ml_arrival_ps = 0.0;
  std::size_t exact_evaluations = 0;  // transient sims for the exact library
  std::size_t ml_training_evaluations = 0;

  double worst_case_guardband() const { return worst_case_arrival_ps / typical_arrival_ps; }
  double she_guardband() const { return she_ml_arrival_ps / typical_arrival_ps; }
};

GuardbandReport run_guardband_flow(const Netlist& nl, CellLibrary& lib,
                                   const Characterizer& characterizer,
                                   MlLibraryCharacterizer& ml_char, const SheFlowConfig& cfg,
                                   const StaEngine& sta);

}  // namespace lore::circuit
