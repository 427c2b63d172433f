// The scenario composition engine: instantiate the layer models a
// `ScenarioSpec` names — device aging/self-heat, arch fault injectors, OS
// governor/mapper/replica policies, rollback schedules, the Fig. 1 learning
// loop — and run every requested stage on the resilient `run_campaign`
// runtime. Stage results keep the raw records so the invariant checker
// (invariants.hpp) can cross-examine layers against each other.
//
// Determinism: every campaign the scenario spawns derives its seed as
// trial_seed(campaign.base_seed or spec.seed, stage index), and every
// entry point used here is per-trial counter-seeded — so a scenario's
// results are bit-identical at any thread count, across resume, and across
// fabric workers (the "scenario.fault" runner below executes the exact same
// trial bodies shard-wise).
#pragma once

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/arch/fault.hpp"
#include "src/arch/workloads.hpp"
#include "src/common/campaign.hpp"
#include "src/core/framework.hpp"
#include "src/obs/json.hpp"
#include "src/os/sim.hpp"
#include "src/rollback/montecarlo.hpp"
#include "src/scenario/spec.hpp"

namespace lore::scenario {

/// Device/circuit stage output: aged threshold shift → alpha-power delay
/// guardband → the maximum frequency the platform may safely run at.
struct DeviceStageResult {
  double stress_temperature_k = 0.0;
  double delta_vth_v = 0.0;
  /// Aged/fresh delay ratio (>= 1).
  double guardband = 1.0;
  double safe_fmax_ghz = 0.0;
};

/// One fault-injection campaign's output.
struct FaultStageResult {
  std::string layer;
  std::string target;
  std::size_t workload = 0;
  std::vector<arch::FaultRecord> records;
  CampaignReport report;
  double avf = 0.0;
  double corruption_factor = 0.0;
};

struct OsPhaseResult {
  double ambient_k = 0.0;
  os::SimResult sim;
  /// Highest frequency any active core was commanded to during the phase.
  double max_freq_used_ghz = 0.0;
};

struct OsStageResult {
  std::string governor;
  std::vector<OsPhaseResult> phases;
  double max_freq_used_ghz = 0.0;
  double peak_temperature_k = 0.0;
  double total_energy_j = 0.0;
  std::size_t jobs_released = 0;
  std::size_t deadline_misses = 0;
  std::size_t soft_errors = 0;
  std::size_t sdc_failures = 0;
  std::size_t masked_faults = 0;
};

struct MixedCritRow {
  double overrun_factor = 0.0;
  std::size_t hi_jobs = 0;
  std::size_t hi_misses = 0;
  std::size_t mode_switches = 0;
  double lo_qos = 1.0;
};

struct MixedCritStageResult {
  std::vector<MixedCritRow> rows;
};

struct ReplicaPhaseRow {
  std::string phase;
  double true_rate = 0.0;
  double estimated_rate = 0.0;
  std::size_t replicas = 1;
  /// expected_cost(r) for r = 1..max_replicas under the estimate at the end
  /// of the phase (for the model-consistency invariant).
  std::vector<double> costs;
};

struct ReplicaStageResult {
  std::vector<ReplicaPhaseRow> rows;
};

struct RollbackStageResult {
  std::vector<rollback::SchedulerKind> schedulers;
  rollback::ExperimentResult experiment;
};

struct CrossLayerStageResult {
  core::TrainingReport training;
  double learned_eval = 0.0;
  /// Mean reward of each fixed V-f policy, index = ladder level.
  std::vector<double> fixed_policy_rewards;
};

struct ScenarioResult {
  ScenarioSpec spec;
  std::optional<DeviceStageResult> device;
  std::vector<FaultStageResult> faults;
  std::optional<OsStageResult> os;
  std::optional<MixedCritStageResult> mixed_criticality;
  std::optional<ReplicaStageResult> replica_drift;
  std::optional<RollbackStageResult> rollback;
  std::optional<CrossLayerStageResult> crosslayer;
  double wall_seconds = 0.0;
  /// Wall time of each stage that ran, in run order, keyed like its
  /// `scenario.stage/<name>` span: device, fault.N, os, mixed_crit, replica,
  /// rollback, crosslayer. Wall-clock, so outside the fingerprint.
  std::vector<std::pair<std::string, double>> stage_seconds;

  /// Campaign trials executed across stages (fault campaigns + rollback
  /// Monte Carlo runs) — the sweep throughput denominator.
  std::size_t total_trials() const;
};

/// Run every stage the spec requests. Throws SpecError on semantic problems
/// the codec cannot see (e.g. a vf_index beyond the ladder).
ScenarioResult run_scenario(const ScenarioSpec& spec);

/// Key numbers of a result as JSON (for artifacts and the example runner's
/// --json mode). Deterministic except for the `wall_seconds` and
/// `stage_seconds` members.
obs::Json result_to_json(const ScenarioResult& result);

/// FNV-1a over every deterministic bit of a result — fault records, OS
/// totals, mixed-criticality/replica rows, rollback hit rates, learning
/// rewards; wall-clock excluded. Equal fingerprints across thread counts /
/// resume / fabric shards are the scenario determinism contract
/// (`lore_scenario --verify`).
std::uint64_t result_fingerprint(const ScenarioResult& result);

// ---- building blocks shared with the fabric runner and tests --------------

/// Seed of fault campaign `fault_index` (trial_seed over the scenario base).
std::uint64_t fault_campaign_seed(const ScenarioSpec& spec, std::size_t fault_index);

/// Campaign spec (identity + policy, no domain fingerprint) for one fault
/// model of the scenario.
CampaignSpec fault_campaign_spec(const ScenarioSpec& spec, std::size_t fault_index);

/// Same, with the domain fingerprint resolved exactly as a worker will —
/// what a fabric coordinator validates shard payloads against.
CampaignSpec resolved_fault_spec(const ScenarioSpec& spec, std::size_t fault_index);

arch::FaultTarget target_from_name(const std::string& name);
arch::Workload build_workload(const WorkloadSpec& w);

/// Register the "scenario.fault" kind with the fabric runner registry:
/// params {"scenario": <spec json>, "fault": i} rebuild the workload in the
/// worker and run the shard through the same `*_campaign_shard` entry
/// points `run_scenario` uses. Idempotent; call before spawning workers.
void register_scenario_runners();

/// Params object the "scenario.fault" kind expects.
obs::Json fault_shard_params(const ScenarioSpec& spec, std::size_t fault_index);

/// Decode a merged checkpoint of fault campaign `fault_index` into records
/// (dispatches on the fault's layer).
CampaignResult<arch::FaultRecord> fault_records_from_checkpoint(
    const ScenarioSpec& spec, std::size_t fault_index, const CampaignCheckpoint& ck);

}  // namespace lore::scenario
