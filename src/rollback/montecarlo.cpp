#include "src/rollback/montecarlo.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "src/common/parallel.hpp"
#include "src/common/stats.hpp"
#include "src/obs/obs.hpp"

namespace lore::rollback {
namespace {

/// Domain-separation tag so DS-ML calibration streams never overlap the
/// Monte Carlo run streams derived from the same experiment seed.
constexpr std::uint64_t kCalibrationTag = 0x63616c6962726174ULL;  // "calibrat"

/// Outcomes of one Monte Carlo run, aligned with the scheduler list.
struct RunSample {
  double rollbacks = 0.0;
  std::vector<double> hit_rate;
};

struct RunSampleCodec {
  static void encode(lore::ByteWriter& w, const RunSample& r) {
    w.put_f64(r.rollbacks);
    w.put_u64(r.hit_rate.size());
    for (const double v : r.hit_rate) w.put_f64(v);
  }
  static RunSample decode(lore::ByteReader& r) {
    RunSample rec;
    rec.rollbacks = r.get_f64();
    const std::uint64_t n = r.get_u64();
    rec.hit_rate.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) rec.hit_rate.push_back(r.get_f64());
    return rec;
  }
};

/// Experiment fingerprint folded into the campaign identity: the sweep grid,
/// run count, scheduler set, and every workload/mitigation parameter that
/// shapes a run's outcome.
std::string experiment_domain(const ExperimentConfig& cfg,
                              const std::vector<SchedulerKind>& schedulers) {
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
  for (const double p : cfg.error_probabilities) mix_f64(p);
  mix(cfg.runs_per_point);
  for (const auto kind : schedulers) mix(static_cast<std::uint64_t>(kind));
  mix(cfg.segmentation.min_cycles);
  mix(cfg.segmentation.max_cycles);
  mix(cfg.segmentation.num_segments);
  mix(cfg.segmentation.seed);
  mix_f64(cfg.mitigation.speed_ratio);
  mix(cfg.mitigation.checkpoint.checkpoint_cycles);
  mix(cfg.mitigation.checkpoint.rollback_cycles);
  char buf[64];
  std::snprintf(buf, sizeof buf, "rollback.montecarlo/%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

}  // namespace

lore::CampaignSpec ExperimentConfig::default_campaign_spec() {
  lore::CampaignSpec spec;
  spec.base_seed = 97;  // the historical experiment seed
  return spec;
}

std::vector<double> ExperimentConfig::default_probability_grid() {
  std::vector<double> grid;
  for (double exponent = -8.0; exponent <= -3.01; exponent += 0.25)
    grid.push_back(std::pow(10.0, exponent));
  return grid;
}

double ExperimentResult::wall_position(SchedulerKind kind) const {
  for (const auto& point : points) {
    const auto it = point.hit_rate.find(kind);
    if (it != point.hit_rate.end() && it->second < 0.5) return point.p;
  }
  return points.empty() ? 0.0 : points.back().p;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg,
                                const std::vector<SchedulerKind>& schedulers) {
  assert(!schedulers.empty());
  LORE_OBS_SPAN(span, "rollback.experiment");
  LORE_OBS_TIMER(timer, "rollback.experiment_us");
  ExperimentResult result;
  result.segments = segment_adpcm_workload(cfg.segmentation);

  const std::size_t n_points = cfg.error_probabilities.size();
  const std::size_t runs = cfg.runs_per_point;
  LORE_OBS_COUNT("rollback.sweep_points", n_points);
  LORE_OBS_COUNT("rollback.mc_runs", n_points * runs);

  // Static budgets are p-independent; DS-ML recalibrates per point (it sees
  // the field error rate through its calibration runs). Both are computed
  // serially up front — they are cheap and every Monte Carlo trial reads them
  // read-only, so the campaign body stays a pure function of its trial index.
  std::map<SchedulerKind, std::vector<double>> budgets;
  for (auto kind : schedulers)
    if (kind != SchedulerKind::kDsLearned)
      budgets[kind] = static_budgets(kind, result.segments, cfg.mitigation.checkpoint);

  const bool wants_learned =
      std::find(schedulers.begin(), schedulers.end(), SchedulerKind::kDsLearned) !=
      schedulers.end();
  std::vector<std::vector<double>> learned_budgets(wants_learned ? n_points : 0);
  for (std::size_t pi = 0; wants_learned && pi < n_points; ++pi) {
    LearnedBudgetScheduler learned;
    lore::Rng calib_rng(lore::trial_seed(cfg.campaign.base_seed ^ kCalibrationTag, pi));
    learned.calibrate(result.segments, cfg.error_probabilities[pi],
                      cfg.mitigation.checkpoint, 10, calib_rng);
    learned_budgets[pi] = learned.budgets(result.segments, cfg.mitigation.checkpoint);
  }

  // One campaign trial per (sweep point, run): trial pi*runs+run draws its
  // stream from the (point, run) counter — ignoring the engine's trial rng —
  // so the realizations are exactly the ones the pre-campaign serial sweep
  // produced, and each run plays every scheduler against the same error
  // realization (paired comparison).
  lore::CampaignSpec spec = cfg.campaign;
  spec.trials = n_points * runs;
  if (spec.domain.empty()) spec.domain = experiment_domain(cfg, schedulers);

  auto campaign = lore::run_campaign<RunSample, RunSampleCodec>(
      spec, [&](std::size_t t, lore::Rng&, const lore::CancelToken& cancel) {
        const std::size_t pi = t / runs;
        const std::size_t run = t % runs;
        const double p = cfg.error_probabilities[pi];
        const std::uint64_t point_seed = lore::trial_seed(cfg.campaign.base_seed, pi);
        RunSample sample;
        sample.hit_rate.reserve(schedulers.size());
        for (auto kind : schedulers) {
          cancel.throw_if_cancelled();
          const auto& budget = kind == SchedulerKind::kDsLearned
                                   ? learned_budgets[pi]
                                   : budgets.at(kind);
          lore::Rng run_rng(lore::trial_seed(point_seed, run));
          const auto outcome =
              simulate_run(result.segments, budget, p, cfg.mitigation, run_rng);
          sample.hit_rate.push_back(outcome.deadline_hit_rate);
          if (sample.hit_rate.size() == 1)
            sample.rollbacks = outcome.mean_rollbacks_per_segment;
        }
        return sample;
      });
  result.campaign_report = campaign.report;

  // Merge serially in (point, run) order over the runs that completed: the
  // accumulation sequence — and thus the floating-point result — is identical
  // for every thread count and across interrupt/resume.
  for (std::size_t pi = 0; pi < n_points; ++pi) {
    SweepPoint point;
    point.p = cfg.error_probabilities[pi];
    lore::RunningStats rollback_stats;
    std::vector<lore::RunningStats> hit_stats(schedulers.size());
    for (std::size_t run = 0; run < runs; ++run) {
      const std::size_t t = pi * runs + run;
      if (campaign.status[t] != lore::TrialStatus::kOk) continue;
      const auto& sample = campaign.records[t];
      rollback_stats.add(sample.rollbacks);
      for (std::size_t k = 0; k < schedulers.size(); ++k)
        hit_stats[k].add(sample.hit_rate[k]);
    }
    point.avg_rollbacks_per_segment = rollback_stats.mean();
    point.sem_rollbacks = rollback_stats.sem();
    for (std::size_t k = 0; k < schedulers.size(); ++k)
      point.hit_rate[schedulers[k]] = hit_stats[k].mean();
    result.points.push_back(std::move(point));
  }
  return result;
}

}  // namespace lore::rollback
