// Composition-engine contract (DESIGN.md §14): a scenario's results are
// bit-identical at any thread count and across fabric shard dispatch, and the
// engine's stages reproduce the legacy per-layer entry points exactly — the
// DSL is a new steering wheel, not a new simulator.
#include "src/scenario/engine.hpp"

#include <gtest/gtest.h>

#include "src/fabric/runners.hpp"
#include "src/os/replica.hpp"
#include "src/rollback/montecarlo.hpp"
#include "src/scenario/invariants.hpp"

namespace {

using namespace lore;
using namespace lore::scenario;

ScenarioSpec fault_heavy_spec() {
  ScenarioSpec spec;
  spec.name = "engine_test";
  spec.seed = 321;
  spec.workloads.push_back({"dot_product", 10, 5});
  spec.workloads.push_back({"checksum", 12, 6});
  spec.faults.push_back({"arch.fault", "register", 0, 48});
  spec.faults.push_back({"arch.pipeline", "register", 1, 32});
  return spec;
}

TEST(ScenarioEngine, ThreadCountDoesNotChangeResults) {
  ScenarioSpec spec = fault_heavy_spec();
  spec.campaign.threads = 1;
  const ScenarioResult serial = run_scenario(spec);
  spec.campaign.threads = 4;
  const ScenarioResult parallel = run_scenario(spec);
  EXPECT_EQ(result_fingerprint(serial), result_fingerprint(parallel));
  ASSERT_EQ(serial.faults.size(), parallel.faults.size());
  for (std::size_t i = 0; i < serial.faults.size(); ++i)
    EXPECT_EQ(serial.faults[i].records, parallel.faults[i].records);
}

TEST(ScenarioEngine, FingerprintSeesSeedChanges) {
  ScenarioSpec spec = fault_heavy_spec();
  const std::uint64_t base = result_fingerprint(run_scenario(spec));
  spec.seed = 322;
  EXPECT_NE(base, result_fingerprint(run_scenario(spec)));
}

TEST(ScenarioEngine, StageSecondsNameEveryStageAndStayOutOfTheFingerprint) {
  ScenarioSpec spec = fault_heavy_spec();
  spec.rollback = RollbackSpec{};
  spec.rollback->runs_per_point = 4;
  const ScenarioResult result = run_scenario(spec);
  ASSERT_EQ(result.stage_seconds.size(), 3u);
  EXPECT_EQ(result.stage_seconds[0].first, "fault.0");
  EXPECT_EQ(result.stage_seconds[1].first, "fault.1");
  EXPECT_EQ(result.stage_seconds[2].first, "rollback");
  double staged = 0.0;
  for (const auto& [name, seconds] : result.stage_seconds) {
    EXPECT_GE(seconds, 0.0) << name;
    staged += seconds;
  }
  EXPECT_LE(staged, result.wall_seconds);

  const obs::Json json = result_to_json(result);
  const obs::Json& stages = json.at("stage_seconds");
  EXPECT_EQ(stages.members().size(), 3u);
  EXPECT_EQ(stages.at("rollback").as_double(), result.stage_seconds[2].second);

  ScenarioResult retimed = result;
  for (auto& [name, seconds] : retimed.stage_seconds) seconds += 1.0;
  EXPECT_EQ(result_fingerprint(retimed), result_fingerprint(result));
}

TEST(ScenarioEngine, RollbackStageMatchesLegacyEntryPoint) {
  ScenarioSpec spec;
  spec.name = "rollback_equiv";
  spec.rollback = RollbackSpec{};
  spec.rollback->schedulers = {"ds", "wcet"};
  spec.rollback->runs_per_point = 6;
  spec.rollback->base_seed = 97;
  spec.rollback->error_probabilities = {1e-6, 5e-6, 1e-5};
  const ScenarioResult result = run_scenario(spec);

  rollback::ExperimentConfig cfg;
  cfg.runs_per_point = 6;
  cfg.error_probabilities = {1e-6, 5e-6, 1e-5};
  cfg.campaign.base_seed = 97;
  const auto direct = rollback::run_experiment(
      cfg, {rollback::SchedulerKind::kDs, rollback::SchedulerKind::kWcet});

  ASSERT_TRUE(result.rollback.has_value());
  ASSERT_EQ(result.rollback->experiment.points.size(), direct.points.size());
  for (std::size_t i = 0; i < direct.points.size(); ++i) {
    EXPECT_DOUBLE_EQ(result.rollback->experiment.points[i].p, direct.points[i].p);
    EXPECT_EQ(result.rollback->experiment.points[i].hit_rate, direct.points[i].hit_rate);
  }
}

TEST(ScenarioEngine, MixedCritStageMatchesLegacyEntryPoint) {
  ScenarioSpec spec;
  spec.name = "mc_equiv";
  spec.mixed_criticality = MixedCritSpec{};
  spec.mixed_criticality->tasks.num_tasks = 6;
  spec.mixed_criticality->tasks.utilization = 0.6;
  spec.mixed_criticality->tasks.seed = 41;
  spec.mixed_criticality->force_criticality.push_back({0, "high"});
  spec.mixed_criticality->overrun_factors = {1.1, 1.8};
  spec.mixed_criticality->duration_ms = 4000.0;
  const ScenarioResult result = run_scenario(spec);

  os::TaskSet tasks = os::generate_taskset(os::TaskSetConfig{
      .num_tasks = 6, .total_utilization = 0.6, .seed = 41});
  tasks[0].criticality = os::Criticality::kHigh;
  ASSERT_TRUE(result.mixed_criticality.has_value());
  ASSERT_EQ(result.mixed_criticality->rows.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    const double overrun = spec.mixed_criticality->overrun_factors[i];
    const auto direct = os::simulate_mixed_criticality(
        tasks, os::McSimConfig{.duration_ms = 4000.0, .overrun_factor = overrun});
    const MixedCritRow& row = result.mixed_criticality->rows[i];
    EXPECT_EQ(row.hi_jobs, direct.hi_jobs);
    EXPECT_EQ(row.hi_misses, direct.hi_misses);
    EXPECT_EQ(row.mode_switches, direct.mode_switches);
    EXPECT_DOUBLE_EQ(row.lo_qos, direct.lo_qos());
  }
}

// The "scenario.fault" fabric kind must execute the exact trial bodies
// run_scenario executes: shard the campaign, run each shard through the
// registered runner, merge the LORECKP1 payloads, decode — and get the very
// same records in the very same order.
TEST(ScenarioEngine, FabricShardDispatchIsBitIdentical) {
  const ScenarioSpec spec = fault_heavy_spec();
  const ScenarioResult direct = run_scenario(spec);

  register_scenario_runners();
  const fabric::ShardRunner runner = fabric::find_runner("scenario.fault");
  ASSERT_TRUE(static_cast<bool>(runner));

  for (std::size_t fi = 0; fi < spec.faults.size(); ++fi) {
    const CampaignSpec resolved = resolved_fault_spec(spec, fi);
    CampaignCheckpoint merged;
    merged.identity = resolved.identity_hash();
    merged.build_tag = checkpoint_build_tag();
    merged.trials = resolved.trials;
    for (const TrialRange& range : shard_trial_ranges(resolved.trials, 3)) {
      fabric::ShardJob job;
      job.kind = "scenario.fault";
      job.params = fault_shard_params(spec, fi);
      job.spec = resolved;
      job.range = range;
      merge_checkpoint_entries(merged, runner(job));
    }
    const auto decoded = fault_records_from_checkpoint(spec, fi, merged);
    EXPECT_TRUE(decoded.report.complete());
    EXPECT_EQ(decoded.records, direct.faults[fi].records) << "fault " << fi;
  }
}

// A hand-planted cross-layer defect: heavy aging shrinks the safe frequency
// while a static governor pins the ladder top — the differential checker
// must connect the two layers and flag it.
TEST(ScenarioEngine, InvariantCheckerCatchesPlantedGuardbandViolation) {
  ScenarioSpec spec;
  spec.name = "planted_guardband";
  spec.device = DeviceSpec{};
  spec.device->years = 15.0;
  spec.device->nominal_fmax_ghz = 2.0;
  spec.device->margin = 1.5;
  spec.os = OsSpec{};
  spec.os->governor = "static";
  spec.os->vf_index = 4;  // ladder top: 2.0 GHz
  spec.os->duration_ms = 200.0;
  spec.os->tasks.num_tasks = 3;
  const ScenarioResult result = run_scenario(spec);
  ASSERT_TRUE(result.device.has_value());
  ASSERT_TRUE(result.os.has_value());
  ASSERT_LT(result.device->safe_fmax_ghz, result.os->max_freq_used_ghz);

  const auto findings = check_invariants(result);
  bool caught = false;
  for (const auto& f : findings)
    if (f.id == "guardband.os_vs_circuit" && f.severity == Severity::kViolation)
      caught = true;
  EXPECT_TRUE(caught);
  EXPECT_GE(count_violations(findings), 1u);
}

// The same scenario with a healthy margin must NOT trip the checker — the
// violation above is the planted defect, not checker noise.
TEST(ScenarioEngine, InvariantCheckerPassesHealthyGuardband) {
  ScenarioSpec spec;
  spec.name = "healthy_guardband";
  spec.device = DeviceSpec{};
  spec.device->years = 2.0;
  spec.device->nominal_fmax_ghz = 3.0;
  spec.os = OsSpec{};
  spec.os->governor = "static";
  spec.os->vf_index = 4;
  spec.os->duration_ms = 200.0;
  spec.os->tasks.num_tasks = 3;
  const auto findings = check_invariants(run_scenario(spec));
  for (const auto& f : findings)
    EXPECT_NE(f.severity, Severity::kViolation) << f.id << ": " << f.message;
}

}  // namespace
