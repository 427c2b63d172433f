#include "src/rollback/montecarlo.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>

#include "src/common/parallel.hpp"
#include "src/common/stats.hpp"
#include "src/obs/obs.hpp"

namespace lore::rollback {
namespace {

/// Domain-separation tag so DS-ML calibration streams never overlap the
/// Monte Carlo run streams derived from the same experiment seed.
constexpr std::uint64_t kCalibrationTag = 0x63616c6962726174ULL;  // "calibrat"

/// Score slots of one Monte Carlo run: one per SchedulerKind.
constexpr std::size_t kSchedulerKinds = 5;

/// Outcomes of one Monte Carlo run, one hit rate per distinct scheduler kind
/// in the order the kinds first appear in the scheduler list. Fixed
/// capacity, so a trial does not allocate.
struct RunSample {
  double rollbacks = 0.0;
  std::size_t schedulers = 0;
  std::array<double, kSchedulerKinds> hit_rate{};
};

/// Byte layout: rollbacks f64, score count u64, one f64 per score. Existing
/// LORECKP1 checkpoints hold records in this layout, so it must not change.
struct RunSampleCodec {
  static void encode(lore::ByteWriter& w, const RunSample& r) {
    w.put_f64(r.rollbacks);
    w.put_u64(r.schedulers);
    for (std::size_t k = 0; k < r.schedulers; ++k) w.put_f64(r.hit_rate[k]);
  }
  static RunSample decode(lore::ByteReader& r) {
    RunSample rec;
    rec.rollbacks = r.get_f64();
    const std::uint64_t n = r.get_u64();
    if (n > kSchedulerKinds)
      throw lore::CheckpointError("rollback run record: " + std::to_string(n) +
                                  " scheduler scores exceed the capacity of " +
                                  std::to_string(kSchedulerKinds));
    rec.schedulers = static_cast<std::size_t>(n);
    for (std::size_t k = 0; k < rec.schedulers; ++k) rec.hit_rate[k] = r.get_f64();
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

  // Everything a run does not draw is computed serially up front, and every
  // Monte Carlo trial reads it read-only, so the campaign body stays a pure
  // function of its trial index:
  //  - per (point, segment), the prepared Eq. (2) sampler;
  //  - per (point, segment, scheduler kind), the cumulative deadline: the
  //    running sum of that scheduler's budgets in segment order, the same
  //    additions simulate_run makes. Static budgets are p-independent; DS-ML
  //    recalibrates per point (it sees the field error rate through its
  //    calibration runs). A kind listed twice scores identically, so each
  //    distinct kind is scored once.
  std::vector<SchedulerKind> kinds;
  for (auto kind : schedulers)
    if (std::find(kinds.begin(), kinds.end(), kind) == kinds.end()) kinds.push_back(kind);
  assert(kinds.size() <= kSchedulerKinds);
  const std::vector<Segment>& segments = result.segments;
  const std::size_t n_seg = segments.size();
  const std::size_t n_kinds = kinds.size();
  const CheckpointParams& checkpoint = cfg.mitigation.checkpoint;
  std::map<SchedulerKind, std::vector<double>> budgets;
  for (auto kind : kinds)
    if (kind != SchedulerKind::kDsLearned)
      budgets[kind] = static_budgets(kind, segments, checkpoint);
  const bool wants_learned =
      std::find(kinds.begin(), kinds.end(), SchedulerKind::kDsLearned) != kinds.end();

  std::vector<RollbackSampler> samplers(n_points * n_seg);
  std::vector<double> deadlines(n_points * n_seg * n_kinds);
  for (std::size_t pi = 0; pi < n_points; ++pi) {
    const double p = cfg.error_probabilities[pi];
    for (std::size_t i = 0; i < n_seg; ++i)
      samplers[pi * n_seg + i] =
          RollbackSampler(p, segments[i].nominal_cycles + checkpoint.checkpoint_cycles);
    std::vector<double> learned;
    if (wants_learned) {
      LearnedBudgetScheduler scheduler;
      lore::Rng calib_rng(lore::trial_seed(cfg.campaign.base_seed ^ kCalibrationTag, pi));
      scheduler.calibrate(segments, p, checkpoint, 10, calib_rng);
      learned = scheduler.budgets(segments, checkpoint);
    }
    for (std::size_t k = 0; k < n_kinds; ++k) {
      const auto& budget =
          kinds[k] == SchedulerKind::kDsLearned ? learned : budgets.at(kinds[k]);
      double cum_deadline = 0.0;
      for (std::size_t i = 0; i < n_seg; ++i) {
        cum_deadline += budget[i];
        deadlines[(pi * n_seg + i) * n_kinds + k] = cum_deadline;
      }
    }
  }

  // One campaign trial per (sweep point, run): trial pi*runs+run draws its
  // stream from the (point, run) counter — ignoring the engine's trial rng —
  // so the realizations are exactly the ones the pre-campaign serial sweep
  // produced. The run draws its rollback sequence once and scores it against
  // every scheduler (paired comparison): each segment's committed cycles
  // extend one running total, checked against each scheduler's cumulative
  // deadline — simulate_run's arithmetic, in its order, per scheduler.
  lore::CampaignSpec spec = cfg.campaign;
  spec.trials = n_points * runs;
  if (spec.domain.empty()) spec.domain = experiment_domain(cfg, schedulers);

  auto campaign = lore::run_campaign<RunSample, RunSampleCodec>(
      spec, [&](std::size_t t, lore::Rng&, const lore::CancelToken& cancel) {
        cancel.throw_if_cancelled();
        const std::size_t pi = t / runs;
        const std::size_t run = t % runs;
        const RollbackSampler* sampler = &samplers[pi * n_seg];
        const double* deadline = &deadlines[pi * n_seg * n_kinds];
        lore::Rng rng(lore::trial_seed(lore::trial_seed(cfg.campaign.base_seed, pi), run));
        std::array<std::size_t, kSchedulerKinds> hits{};
        std::uint64_t total_rollbacks = 0;
        double cum_executed = 0.0;  // committed cycles normalized to nominal speed
        for (std::size_t i = 0; i < n_seg; ++i) {
          const std::uint64_t rollbacks = sampler[i].draw(rng);
          total_rollbacks += rollbacks;
          const std::uint64_t cycles =
              segment_total_cycles(segments[i].nominal_cycles, rollbacks, checkpoint);
          cum_executed += static_cast<double>(cycles) / cfg.mitigation.speed_ratio;
          for (std::size_t k = 0; k < n_kinds; ++k)
            hits[k] += cum_executed <= deadline[i * n_kinds + k];
        }
        RunSample sample;
        sample.rollbacks =
            static_cast<double>(total_rollbacks) / static_cast<double>(n_seg);
        sample.schedulers = n_kinds;
        for (std::size_t k = 0; k < n_kinds; ++k)
          sample.hit_rate[k] = static_cast<double>(hits[k]) / static_cast<double>(n_seg);
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
    std::vector<lore::RunningStats> hit_stats(n_kinds);
    for (std::size_t run = 0; run < runs; ++run) {
      const std::size_t t = pi * runs + run;
      if (campaign.status[t] != lore::TrialStatus::kOk) continue;
      const auto& sample = campaign.records[t];
      rollback_stats.add(sample.rollbacks);
      for (std::size_t k = 0; k < n_kinds; ++k) hit_stats[k].add(sample.hit_rate[k]);
    }
    point.avg_rollbacks_per_segment = rollback_stats.mean();
    point.sem_rollbacks = rollback_stats.sem();
    for (std::size_t k = 0; k < n_kinds; ++k) point.hit_rate[kinds[k]] = hit_stats[k].mean();
    result.points.push_back(std::move(point));
  }
  return result;
}

}  // namespace lore::rollback
