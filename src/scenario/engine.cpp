#include "src/scenario/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>

#include "src/arch/pipeline.hpp"
#include "src/device/aging.hpp"
#include "src/common/parallel.hpp"
#include "src/core/crosslayer.hpp"
#include "src/fabric/runners.hpp"
#include "src/os/governor.hpp"
#include "src/os/mapper.hpp"
#include "src/os/platform.hpp"
#include "src/obs/obs.hpp"
#include "src/os/replica.hpp"
#include "src/os/tasks.hpp"

namespace lore::scenario {

namespace {

/// Pass-through governor that remembers the highest frequency any active
/// core was commanded to — the measured side of the guardband invariant.
class RecordingGovernor final : public os::Governor {
 public:
  explicit RecordingGovernor(os::Governor* inner) : inner_(inner) {}

  void control(os::Platform& platform, const os::SystemStatus& status) override {
    if (inner_) inner_->control(platform, status);
    for (std::size_t i = 0; i < platform.num_cores(); ++i) {
      const os::Core& core = platform.core(i);
      if (core.power_state != os::PowerState::kActive) continue;
      max_freq_ghz_ =
          std::max(max_freq_ghz_, platform.ladder()[core.vf_index].freq_ghz);
    }
  }
  void end_episode() override {
    if (inner_) inner_->end_episode();
  }
  std::string name() const override { return inner_ ? inner_->name() : "static-levels"; }

  double max_freq_ghz() const { return max_freq_ghz_; }

 private:
  os::Governor* inner_;
  double max_freq_ghz_ = 0.0;
};

os::TaskSetConfig to_taskset_config(const TasksetSpec& t) {
  os::TaskSetConfig cfg;
  cfg.num_tasks = t.num_tasks;
  cfg.total_utilization = t.utilization;
  cfg.min_period_ms = t.min_period_ms;
  cfg.max_period_ms = t.max_period_ms;
  cfg.high_criticality_fraction = t.hi_fraction;
  cfg.lo_budget_fraction = t.lo_budget_fraction;
  cfg.seed = t.seed;
  return cfg;
}

rollback::SchedulerKind scheduler_from_token(const std::string& token) {
  if (token == "ds") return rollback::SchedulerKind::kDs;
  if (token == "ds-1.5x") return rollback::SchedulerKind::kDs15;
  if (token == "ds-2x") return rollback::SchedulerKind::kDs2;
  if (token == "wcet") return rollback::SchedulerKind::kWcet;
  if (token == "ds-ml") return rollback::SchedulerKind::kDsLearned;
  throw SpecError("scenario.rollback.schedulers: unknown scheduler '" + token + "'");
}

std::chrono::milliseconds to_ms(double ms) {
  return std::chrono::milliseconds(static_cast<std::int64_t>(ms));
}

// ---- stages ----------------------------------------------------------------

DeviceStageResult run_device_stage(const ScenarioSpec& spec) {
  const DeviceSpec& d = *spec.device;
  // Time-weighted ambient of the thermal trace plus the SHE channel rise.
  double ambient_k = 318.0;
  if (!spec.thermal.empty()) {
    double weighted = 0.0, total = 0.0;
    for (const ThermalPhase& p : spec.thermal) {
      weighted += p.ambient_k * p.duration_ms;
      total += p.duration_ms;
    }
    if (total > 0.0) ambient_k = weighted / total;
  }
  DeviceStageResult out;
  out.stress_temperature_k = ambient_k + d.self_heat_rise_k;

  const device::AgingModel aging;
  out.delta_vth_v = aging.delta_vth(device::StressCondition{
      .vdd = d.vdd,
      .temperature = out.stress_temperature_k,
      .duty_cycle = d.duty_cycle,
      .toggle_rate_ghz = d.toggle_rate_ghz,
      .years = d.years});

  // Alpha-power law: gate delay ∝ Vdd / (Vdd - Vth)^alpha, so the aged/fresh
  // delay ratio at constant Vdd is ((Vdd-Vth0)/(Vdd-Vth0-ΔVth))^alpha.
  const double overdrive = d.vdd - d.vth0;
  const double aged_overdrive = overdrive - out.delta_vth_v;
  if (overdrive <= 0.0 || aged_overdrive <= 0.0) {
    out.guardband = 10.0;  // device effectively dead at this Vdd
  } else {
    out.guardband = std::pow(overdrive / aged_overdrive, d.alpha);
  }
  out.safe_fmax_ghz = d.nominal_fmax_ghz / (out.guardband * d.margin);
  return out;
}

FaultStageResult run_fault_stage(const ScenarioSpec& spec, std::size_t fault_index) {
  const FaultModelSpec& f = spec.faults[fault_index];
  const arch::Workload workload = build_workload(spec.workloads[f.workload]);
  const CampaignSpec cs = fault_campaign_spec(spec, fault_index);

  FaultStageResult out;
  out.layer = f.layer;
  out.target = f.target;
  out.workload = f.workload;
  if (f.layer == "arch.pipeline") {
    auto result = arch::pipeline_campaign_run(workload, cs);
    out.records = std::move(result.records);
    out.report = result.report;
  } else {
    const arch::FaultInjector injector(workload);
    auto result = injector.campaign_run(cs, target_from_name(f.target));
    out.records = std::move(result.records);
    out.report = result.report;
  }
  out.avf = arch::avf(out.records);
  out.corruption_factor = arch::architectural_corruption_factor(out.records);
  return out;
}

OsStageResult run_os_stage(const ScenarioSpec& spec) {
  const OsSpec& o = *spec.os;
  OsStageResult out;
  out.governor = o.governor;

  std::vector<os::CoreType> core_types;
  for (std::size_t i = 0; i < o.big_cores; ++i) core_types.push_back(os::make_big_core());
  for (std::size_t i = 0; i < o.little_cores; ++i)
    core_types.push_back(os::make_little_core());
  if (core_types.empty())
    throw SpecError("scenario.os: big_cores + little_cores must be > 0");

  const os::TaskSet tasks = os::generate_taskset(to_taskset_config(o.tasks));

  // One phase at the default ambient when the spec has no thermal trace.
  std::vector<ThermalPhase> phases = spec.thermal;
  if (phases.empty()) phases.push_back(ThermalPhase{.duration_ms = o.duration_ms});

  for (std::size_t pi = 0; pi < phases.size(); ++pi) {
    os::PlatformConfig pc;
    pc.ambient_k = phases[pi].ambient_k;
    os::Platform platform(core_types, pc);
    if (o.vf_index >= platform.ladder().size())
      throw SpecError("scenario.os.vf_index: index " + std::to_string(o.vf_index) +
                      " beyond the " + std::to_string(platform.ladder().size()) +
                      "-level ladder");

    std::vector<std::size_t> mapping;
    if (o.mapping == "performance") {
      mapping = os::map_performance_only(tasks, platform);
    } else if (o.mapping == "thermal") {
      mapping = os::map_thermal_aware(tasks, platform);
    } else {
      std::vector<double> capacity;
      for (const auto& t : core_types) capacity.push_back(t.perf_factor);
      mapping = os::partition_worst_fit(tasks, capacity);
    }

    os::SimConfig sc;
    sc.tick_ms = o.tick_ms;
    sc.duration_ms = o.duration_ms;
    sc.control_period_ms = o.control_period_ms;
    sc.ser = os::SerParams{.lambda0_per_s = o.ser_lambda0_per_s,
                           .d_exponent = o.ser_d_exponent};
    sc.seed = pi == 0 ? o.sim_seed : trial_seed(o.sim_seed, pi);

    os::StaticGovernor static_gov(o.vf_index);
    os::OndemandGovernor ondemand_gov;
    os::TimeoutDpmGovernor dpm_gov(&ondemand_gov);
    std::unique_ptr<os::RlDvfsGovernor> rl_gov;
    os::Governor* inner = nullptr;
    if (o.governor == "static") {
      inner = &static_gov;
    } else if (o.governor == "ondemand") {
      inner = &ondemand_gov;
    } else if (o.governor == "dpm") {
      inner = &dpm_gov;
    } else {  // "rl" (codec-validated)
      rl_gov = os::train_rl_governor(platform, tasks, mapping, sc, o.rl_episodes);
      rl_gov->freeze();
      inner = rl_gov.get();
    }
    RecordingGovernor recorder(inner);

    os::SystemSimulator sim(platform, tasks, mapping, sc);
    OsPhaseResult phase;
    phase.ambient_k = phases[pi].ambient_k;
    phase.sim = sim.run(&recorder);
    phase.max_freq_used_ghz = recorder.max_freq_ghz();
    out.max_freq_used_ghz = std::max(out.max_freq_used_ghz, phase.max_freq_used_ghz);
    out.peak_temperature_k = std::max(out.peak_temperature_k, phase.sim.peak_temperature_k);
    out.total_energy_j += phase.sim.energy_j;
    out.jobs_released += phase.sim.jobs_released;
    out.deadline_misses += phase.sim.deadline_misses;
    out.soft_errors += phase.sim.soft_errors;
    out.sdc_failures += phase.sim.sdc_failures;
    out.masked_faults += phase.sim.masked_faults;
    out.phases.push_back(std::move(phase));
  }
  return out;
}

MixedCritStageResult run_mixed_crit_stage(const ScenarioSpec& spec) {
  const MixedCritSpec& m = *spec.mixed_criticality;
  os::TaskSet tasks = os::generate_taskset(to_taskset_config(m.tasks));
  for (const CriticalityOverride& o : m.force_criticality) {
    if (o.task >= tasks.size())
      throw SpecError("scenario.mixed_criticality.force_criticality: task index " +
                      std::to_string(o.task) + " out of range");
    tasks[o.task].criticality =
        o.level == "high" ? os::Criticality::kHigh : os::Criticality::kLow;
  }
  MixedCritStageResult out;
  for (double overrun : m.overrun_factors) {
    const auto r = os::simulate_mixed_criticality(
        tasks, os::McSimConfig{.tick_ms = m.tick_ms,
                               .duration_ms = m.duration_ms,
                               .overrun_factor = overrun,
                               .seed = m.sim_seed});
    out.rows.push_back(MixedCritRow{.overrun_factor = overrun,
                                    .hi_jobs = r.hi_jobs,
                                    .hi_misses = r.hi_misses,
                                    .mode_switches = r.mode_switches,
                                    .lo_qos = r.lo_qos()});
  }
  return out;
}

ReplicaStageResult run_replica_stage(const ScenarioSpec& spec) {
  const ReplicaDriftSpec& rd = *spec.replica_drift;
  os::ReplicaManager mgr;
  lore::Rng rng(rd.seed);
  ReplicaStageResult out;
  for (const ReplicaPhase& phase : rd.phases) {
    for (std::size_t w = 0; w < phase.windows; ++w) {
      std::size_t faults = 0;
      for (std::size_t j = 0; j < rd.jobs_per_window; ++j)
        faults += rng.bernoulli(phase.fault_rate) ? 1 : 0;
      mgr.observe(faults, rd.jobs_per_window);
    }
    ReplicaPhaseRow row;
    row.phase = phase.name;
    row.true_rate = phase.fault_rate;
    row.estimated_rate = mgr.fault_probability();
    row.replicas = mgr.recommended_replicas();
    for (std::size_t r = 1; r <= os::ReplicaManagerConfig{}.max_replicas; ++r)
      row.costs.push_back(mgr.expected_cost(r));
    out.rows.push_back(std::move(row));
  }
  return out;
}

RollbackStageResult run_rollback_stage(const ScenarioSpec& spec) {
  const RollbackSpec& rb = *spec.rollback;
  rollback::ExperimentConfig cfg;
  cfg.runs_per_point = rb.runs_per_point;
  if (!rb.error_probabilities.empty()) cfg.error_probabilities = rb.error_probabilities;
  if (rb.base_seed) cfg.campaign.base_seed = *rb.base_seed;
  cfg.campaign.threads = spec.campaign.threads;
  cfg.campaign.max_retries = spec.campaign.max_retries;
  if (spec.campaign.trial_deadline_ms > 0.0)
    cfg.campaign.trial_deadline = to_ms(spec.campaign.trial_deadline_ms);

  RollbackStageResult out;
  for (const std::string& token : rb.schedulers)
    out.schedulers.push_back(scheduler_from_token(token));
  out.experiment = rollback::run_experiment(cfg, out.schedulers);
  return out;
}

CrossLayerStageResult run_crosslayer_stage(const ScenarioSpec& spec) {
  const CrossLayerSpec& cl = *spec.crosslayer;
  core::CrossLayerConfig env_cfg;
  env_cfg.seed = cl.env_seed;
  core::CrossLayerEnvironment env(env_cfg);

  ml::QLearnerConfig learner_cfg;
  learner_cfg.alpha = cl.alpha;
  learner_cfg.gamma = cl.gamma;
  learner_cfg.epsilon = cl.epsilon;
  learner_cfg.epsilon_decay = cl.epsilon_decay;
  learner_cfg.seed = cl.learner_seed;
  core::LearningController controller(learner_cfg);

  CrossLayerStageResult out;
  out.training = controller.train(env, cl.episodes, cl.steps_per_episode);
  out.learned_eval = controller.evaluate(env, cl.eval_episodes, cl.steps_per_episode);
  if (cl.fixed_policy_baselines) {
    // Same evaluation protocol as the learned policy — env state (and its
    // RNG stream) carries across policies exactly like the legacy bench.
    for (std::size_t vf = 0; vf < env.num_actions(); ++vf) {
      double total = 0.0;
      std::size_t count = 0;
      for (std::size_t episode = 0; episode < cl.eval_episodes; ++episode) {
        env.reset();
        for (std::size_t s = 0; s < cl.steps_per_episode; ++s) {
          total += env.step(vf).reward;
          ++count;
        }
      }
      out.fixed_policy_rewards.push_back(count ? total / static_cast<double>(count) : 0.0);
    }
  }
  return out;
}

}  // namespace

std::size_t ScenarioResult::total_trials() const {
  std::size_t trials = 0;
  for (const FaultStageResult& f : faults) trials += f.report.trials;
  if (rollback) trials += rollback->experiment.campaign_report.trials;
  return trials;
}

arch::FaultTarget target_from_name(const std::string& name) {
  if (name == "register") return arch::FaultTarget::kRegister;
  if (name == "memory") return arch::FaultTarget::kMemory;
  if (name == "instruction") return arch::FaultTarget::kInstruction;
  throw SpecError("scenario.faults.target: unknown target '" + name + "'");
}

arch::Workload build_workload(const WorkloadSpec& w) {
  obs::Json params = obs::Json::object();
  params["workload"] = w.name;
  params["scale"] = static_cast<std::int64_t>(w.scale);
  params["wseed"] = static_cast<std::int64_t>(w.wseed);
  auto workload = fabric::workload_from_params(params);
  if (!workload) throw SpecError("scenario.workloads: unknown workload '" + w.name + "'");
  return std::move(*workload);
}

std::uint64_t fault_campaign_seed(const ScenarioSpec& spec, std::size_t fault_index) {
  const std::uint64_t base = spec.campaign.base_seed.value_or(spec.seed);
  return trial_seed(base, fault_index);
}

CampaignSpec fault_campaign_spec(const ScenarioSpec& spec, std::size_t fault_index) {
  const FaultModelSpec& f = spec.faults.at(fault_index);
  CampaignSpec cs;
  cs.trials = f.trials;
  cs.base_seed = fault_campaign_seed(spec, fault_index);
  cs.threads = spec.campaign.threads;
  cs.max_retries = spec.campaign.max_retries;
  if (spec.campaign.trial_deadline_ms > 0.0)
    cs.trial_deadline = to_ms(spec.campaign.trial_deadline_ms);
  if (spec.campaign.overall_budget_ms > 0.0)
    cs.overall_budget = to_ms(spec.campaign.overall_budget_ms);
  if (spec.campaign.checkpoint)
    cs.checkpoint_path = default_checkpoint_path("scenario_" + spec.name + "_fault" +
                                                 std::to_string(fault_index));
  return cs;
}

CampaignSpec resolved_fault_spec(const ScenarioSpec& spec, std::size_t fault_index) {
  const FaultModelSpec& f = spec.faults.at(fault_index);
  const arch::Workload workload = build_workload(spec.workloads[f.workload]);
  const CampaignSpec cs = fault_campaign_spec(spec, fault_index);
  if (f.layer == "arch.pipeline") return arch::pipeline_campaign_spec(workload, cs);
  const arch::FaultInjector injector(workload);
  return injector.resolved_spec(cs, target_from_name(f.target));
}

CampaignResult<arch::FaultRecord> fault_records_from_checkpoint(
    const ScenarioSpec& spec, std::size_t fault_index, const CampaignCheckpoint& ck) {
  const FaultModelSpec& f = spec.faults.at(fault_index);
  const CampaignSpec cs = resolved_fault_spec(spec, fault_index);
  if (f.layer == "arch.pipeline") return arch::pipeline_records_from_checkpoint(cs, ck);
  return arch::FaultInjector::records_from_checkpoint(cs, ck);
}

obs::Json fault_shard_params(const ScenarioSpec& spec, std::size_t fault_index) {
  obs::Json params = obs::Json::object();
  params["scenario"] = to_json(spec);
  params["fault"] = static_cast<std::int64_t>(fault_index);
  return params;
}

void register_scenario_runners() {
  fabric::register_runner("scenario.fault", [](const fabric::ShardJob& job) {
    const ScenarioSpec spec = scenario_from_json(job.params.at("scenario"));
    const std::size_t fault_index =
        static_cast<std::size_t>(job.params.at("fault").as_int());
    if (fault_index >= spec.faults.size())
      throw SpecError("scenario.fault shard: fault index out of range");
    const FaultModelSpec& f = spec.faults[fault_index];
    const arch::Workload workload = build_workload(spec.workloads[f.workload]);
    if (f.layer == "arch.pipeline")
      return arch::pipeline_campaign_shard(workload, job.spec, job.range);
    const arch::FaultInjector injector(workload);
    return injector.campaign_shard(job.spec, job.range, target_from_name(f.target));
  });
}

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  const auto start = std::chrono::steady_clock::now();
  // Each stage runs under its own span so a traced scenario (local or shipped
  // to a fabric worker) decomposes into per-stage intervals; campaign-level
  // spans/events emitted inside a stage nest under it via the ambient context.
  // The same scope times the stage for `stage_seconds`.
  LORE_OBS_SPAN(scenario_span, "scenario.run");
  ScenarioResult result;
  result.spec = spec;
  const auto stage = [&result](const std::string& name, auto&& run_stage) {
    LORE_OBS_SPAN(stage_span, "scenario.stage/" + name);
    const auto stage_start = std::chrono::steady_clock::now();
    run_stage();
    result.stage_seconds.emplace_back(
        name, std::chrono::duration<double>(std::chrono::steady_clock::now() - stage_start)
                  .count());
  };
  if (spec.device) stage("device", [&] { result.device = run_device_stage(spec); });
  for (std::size_t i = 0; i < spec.faults.size(); ++i)
    stage("fault." + std::to_string(i),
          [&] { result.faults.push_back(run_fault_stage(spec, i)); });
  if (spec.os) stage("os", [&] { result.os = run_os_stage(spec); });
  if (spec.mixed_criticality)
    stage("mixed_crit", [&] { result.mixed_criticality = run_mixed_crit_stage(spec); });
  if (spec.replica_drift)
    stage("replica", [&] { result.replica_drift = run_replica_stage(spec); });
  if (spec.rollback) stage("rollback", [&] { result.rollback = run_rollback_stage(spec); });
  if (spec.crosslayer)
    stage("crosslayer", [&] { result.crosslayer = run_crosslayer_stage(spec); });
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

namespace {

void fp_mix(std::uint64_t& h, const void* data, std::size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
}

void fp_mix_u64(std::uint64_t& h, std::uint64_t v) { fp_mix(h, &v, sizeof v); }

void fp_mix_double(std::uint64_t& h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  fp_mix(h, &bits, sizeof bits);
}

}  // namespace

std::uint64_t result_fingerprint(const ScenarioResult& result) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  if (result.device) {
    fp_mix_double(h, result.device->delta_vth_v);
    fp_mix_double(h, result.device->guardband);
    fp_mix_double(h, result.device->safe_fmax_ghz);
  }
  for (const FaultStageResult& f : result.faults) {
    fp_mix_u64(h, f.report.trials);
    fp_mix_u64(h, f.report.completed);
    for (const arch::FaultRecord& rec : f.records) {
      fp_mix_u64(h, static_cast<std::uint64_t>(rec.site.target));
      fp_mix_u64(h, rec.site.index);
      fp_mix_u64(h, rec.site.bit);
      fp_mix_u64(h, rec.site.cycle);
      fp_mix_u64(h, static_cast<std::uint64_t>(rec.outcome));
      fp_mix_u64(h, static_cast<std::uint64_t>(rec.active_instruction));
      fp_mix_u64(h, rec.trial_seed);
    }
  }
  if (result.os) {
    fp_mix_double(h, result.os->max_freq_used_ghz);
    fp_mix_double(h, result.os->peak_temperature_k);
    fp_mix_double(h, result.os->total_energy_j);
    fp_mix_u64(h, result.os->jobs_released);
    fp_mix_u64(h, result.os->deadline_misses);
    fp_mix_u64(h, result.os->soft_errors);
    fp_mix_u64(h, result.os->sdc_failures);
    fp_mix_u64(h, result.os->masked_faults);
  }
  if (result.mixed_criticality) {
    for (const MixedCritRow& r : result.mixed_criticality->rows) {
      fp_mix_double(h, r.overrun_factor);
      fp_mix_u64(h, r.hi_jobs);
      fp_mix_u64(h, r.hi_misses);
      fp_mix_u64(h, r.mode_switches);
      fp_mix_double(h, r.lo_qos);
    }
  }
  if (result.replica_drift) {
    for (const ReplicaPhaseRow& r : result.replica_drift->rows) {
      fp_mix_double(h, r.estimated_rate);
      fp_mix_u64(h, r.replicas);
      for (double c : r.costs) fp_mix_double(h, c);
    }
  }
  if (result.rollback) {
    for (const auto& point : result.rollback->experiment.points) {
      fp_mix_double(h, point.p);
      fp_mix_double(h, point.avg_rollbacks_per_segment);
      for (rollback::SchedulerKind kind : result.rollback->schedulers)
        fp_mix_double(h, point.hit_rate.at(kind));
    }
  }
  if (result.crosslayer) {
    for (double r : result.crosslayer->training.episode_rewards) fp_mix_double(h, r);
    fp_mix_double(h, result.crosslayer->learned_eval);
    for (double r : result.crosslayer->fixed_policy_rewards) fp_mix_double(h, r);
  }
  return h;
}

obs::Json result_to_json(const ScenarioResult& result) {
  using obs::Json;
  Json j = Json::object();
  j["schema"] = "lore.scenario_result.v1";
  j["name"] = result.spec.name;
  j["seed"] = static_cast<std::int64_t>(result.spec.seed);
  j["wall_seconds"] = result.wall_seconds;
  Json stages = Json::object();
  for (const auto& [name, seconds] : result.stage_seconds) stages[name] = seconds;
  j["stage_seconds"] = std::move(stages);
  j["total_trials"] = static_cast<std::int64_t>(result.total_trials());
  if (result.device) {
    Json d = Json::object();
    d["stress_temperature_k"] = result.device->stress_temperature_k;
    d["delta_vth_v"] = result.device->delta_vth_v;
    d["guardband"] = result.device->guardband;
    d["safe_fmax_ghz"] = result.device->safe_fmax_ghz;
    j["device"] = std::move(d);
  }
  if (!result.faults.empty()) {
    Json a = Json::array();
    for (const FaultStageResult& f : result.faults) {
      Json e = Json::object();
      e["layer"] = f.layer;
      e["target"] = f.target;
      e["trials"] = static_cast<std::int64_t>(f.report.trials);
      e["completed"] = static_cast<std::int64_t>(f.report.completed);
      e["avf"] = f.avf;
      e["corruption_factor"] = f.corruption_factor;
      a.push_back(std::move(e));
    }
    j["faults"] = std::move(a);
  }
  if (result.os) {
    Json o = Json::object();
    o["governor"] = result.os->governor;
    o["phases"] = static_cast<std::int64_t>(result.os->phases.size());
    o["max_freq_used_ghz"] = result.os->max_freq_used_ghz;
    o["peak_temperature_k"] = result.os->peak_temperature_k;
    o["energy_j"] = result.os->total_energy_j;
    o["jobs_released"] = static_cast<std::int64_t>(result.os->jobs_released);
    o["deadline_misses"] = static_cast<std::int64_t>(result.os->deadline_misses);
    o["soft_errors"] = static_cast<std::int64_t>(result.os->soft_errors);
    o["sdc_failures"] = static_cast<std::int64_t>(result.os->sdc_failures);
    o["masked_faults"] = static_cast<std::int64_t>(result.os->masked_faults);
    j["os"] = std::move(o);
  }
  if (result.mixed_criticality) {
    Json a = Json::array();
    for (const MixedCritRow& r : result.mixed_criticality->rows) {
      Json e = Json::object();
      e["overrun_factor"] = r.overrun_factor;
      e["hi_jobs"] = static_cast<std::int64_t>(r.hi_jobs);
      e["hi_misses"] = static_cast<std::int64_t>(r.hi_misses);
      e["mode_switches"] = static_cast<std::int64_t>(r.mode_switches);
      e["lo_qos"] = r.lo_qos;
      a.push_back(std::move(e));
    }
    j["mixed_criticality"] = std::move(a);
  }
  if (result.replica_drift) {
    Json a = Json::array();
    for (const ReplicaPhaseRow& r : result.replica_drift->rows) {
      Json e = Json::object();
      e["phase"] = r.phase;
      e["true_rate"] = r.true_rate;
      e["estimated_rate"] = r.estimated_rate;
      e["replicas"] = static_cast<std::int64_t>(r.replicas);
      a.push_back(std::move(e));
    }
    j["replica_drift"] = std::move(a);
  }
  if (result.rollback) {
    Json a = Json::array();
    for (const auto& point : result.rollback->experiment.points) {
      Json e = Json::object();
      e["p"] = point.p;
      Json rates = Json::object();
      for (rollback::SchedulerKind kind : result.rollback->schedulers)
        rates[rollback::scheduler_name(kind)] = point.hit_rate.at(kind);
      e["hit_rate"] = std::move(rates);
      a.push_back(std::move(e));
    }
    j["rollback"] = std::move(a);
  }
  if (result.crosslayer) {
    Json c = Json::object();
    c["episodes"] = static_cast<std::int64_t>(result.crosslayer->training.episode_rewards.size());
    c["early_mean"] = result.crosslayer->training.early_mean();
    c["late_mean"] = result.crosslayer->training.late_mean();
    c["learned_eval"] = result.crosslayer->learned_eval;
    Json fixed = Json::array();
    for (double r : result.crosslayer->fixed_policy_rewards) fixed.push_back(r);
    c["fixed_policy_rewards"] = std::move(fixed);
    j["crosslayer"] = std::move(c);
  }
  return j;
}

}  // namespace lore::scenario
