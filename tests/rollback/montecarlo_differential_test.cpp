// Differential and golden pins of the Section V Monte Carlo sweep. Each run
// of `run_experiment` draws one rollback sequence and scores it against every
// scheduler; these tests hold that trial body to `simulate_run` — the public
// single-scheduler oracle — bit for bit, per scheduler, and pin one sweep
// point of the Fig. 5/6 experiment in hex floats.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/stats.hpp"
#include "src/rollback/montecarlo.hpp"

namespace lore::rollback {
namespace {

/// Domain tag of the DS-ML calibration streams (src/rollback/montecarlo.cpp):
/// point pi calibrates from Rng(trial_seed(base_seed ^ tag, pi)).
constexpr std::uint64_t kCalibrationTag = 0x63616c6962726174ULL;

const std::vector<SchedulerKind> kAllSchedulers{SchedulerKind::kDs, SchedulerKind::kDs15,
                                                SchedulerKind::kDs2, SchedulerKind::kWcet,
                                                SchedulerKind::kDsLearned};

/// The sweep recomputed one scheduler at a time through `simulate_run`, in
/// the same (point, run) order and with the same per-run seeds.
std::vector<SweepPoint> oracle_sweep(const ExperimentConfig& cfg,
                                     const std::vector<SchedulerKind>& schedulers) {
  const auto segments = segment_adpcm_workload(cfg.segmentation);
  const std::uint64_t base = cfg.campaign.base_seed;
  std::vector<SweepPoint> points;
  for (std::size_t pi = 0; pi < cfg.error_probabilities.size(); ++pi) {
    const double p = cfg.error_probabilities[pi];
    const std::uint64_t point_seed = lore::trial_seed(base, pi);
    SweepPoint point;
    point.p = p;
    lore::RunningStats rollbacks;
    for (std::size_t k = 0; k < schedulers.size(); ++k) {
      std::vector<double> budgets;
      if (schedulers[k] == SchedulerKind::kDsLearned) {
        LearnedBudgetScheduler learned;
        lore::Rng calib(lore::trial_seed(base ^ kCalibrationTag, pi));
        learned.calibrate(segments, p, cfg.mitigation.checkpoint, 10, calib);
        budgets = learned.budgets(segments, cfg.mitigation.checkpoint);
      } else {
        budgets = static_budgets(schedulers[k], segments, cfg.mitigation.checkpoint);
      }
      lore::RunningStats hits;
      for (std::size_t run = 0; run < cfg.runs_per_point; ++run) {
        lore::Rng rng(lore::trial_seed(point_seed, run));
        const RunOutcome outcome = simulate_run(segments, budgets, p, cfg.mitigation, rng);
        hits.add(outcome.deadline_hit_rate);
        if (k == 0) rollbacks.add(outcome.mean_rollbacks_per_segment);
      }
      point.hit_rate[schedulers[k]] = hits.mean();
    }
    point.avg_rollbacks_per_segment = rollbacks.mean();
    point.sem_rollbacks = rollbacks.sem();
    points.push_back(std::move(point));
  }
  return points;
}

void expect_points_equal(const std::vector<SweepPoint>& want,
                         const std::vector<SweepPoint>& got) {
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    SCOPED_TRACE(testing::Message() << "p=" << want[i].p);
    EXPECT_EQ(want[i].p, got[i].p);
    EXPECT_EQ(want[i].avg_rollbacks_per_segment, got[i].avg_rollbacks_per_segment);
    EXPECT_EQ(want[i].sem_rollbacks, got[i].sem_rollbacks);
    EXPECT_EQ(want[i].hit_rate, got[i].hit_rate);
  }
}

TEST(MonteCarloDifferential, RandomPointsMatchSimulateRunPerScheduler) {
  // Log-uniform error probabilities across (and past) the paper's range.
  lore::Rng pick(2026);
  ExperimentConfig cfg;
  cfg.error_probabilities.clear();
  for (int i = 0; i < 8; ++i)
    cfg.error_probabilities.push_back(std::pow(10.0, pick.uniform(-9.0, -3.0)));
  cfg.runs_per_point = 9;
  cfg.campaign.base_seed = pick.next_u64();
  expect_points_equal(oracle_sweep(cfg, kAllSchedulers),
                      run_experiment(cfg, kAllSchedulers).points);
}

TEST(MonteCarloDifferential, EdgeProbabilitiesMatchSimulateRun) {
  // p = 0: no draw at all (q = 1). p = 1e-3: q <= 1e-12 on every segment, so
  // each segment takes the rollback cap without a draw. p = 1: q = 0, the cap.
  ExperimentConfig cfg;
  cfg.error_probabilities = {0.0, 1e-3, 1.0};
  cfg.runs_per_point = 5;
  const auto points = run_experiment(cfg, kAllSchedulers).points;
  expect_points_equal(oracle_sweep(cfg, kAllSchedulers), points);
  EXPECT_EQ(points[0].avg_rollbacks_per_segment, 0.0);
  EXPECT_EQ(points[1].avg_rollbacks_per_segment, 1e6);
  EXPECT_EQ(points[2].avg_rollbacks_per_segment, 1e6);
}

TEST(MonteCarloDifferential, SchedulerOrderAndSubsetsMatchSimulateRun) {
  // Scores are aligned with the caller's scheduler list, whatever its order.
  ExperimentConfig cfg;
  cfg.segmentation.num_segments = 7;
  cfg.error_probabilities = {2e-6, 7e-6};
  cfg.runs_per_point = 11;
  const std::vector<SchedulerKind> schedulers{SchedulerKind::kDsLearned, SchedulerKind::kWcet,
                                              SchedulerKind::kDs};
  expect_points_equal(oracle_sweep(cfg, schedulers), run_experiment(cfg, schedulers).points);
}

TEST(MonteCarloDifferential, RepeatedSchedulersMatchSimulateRun) {
  // A kind listed twice scores once; the list may be longer than the kinds.
  ExperimentConfig cfg;
  cfg.error_probabilities = {4e-6};
  cfg.runs_per_point = 6;
  const std::vector<SchedulerKind> schedulers{
      SchedulerKind::kWcet, SchedulerKind::kDs,  SchedulerKind::kWcet,     SchedulerKind::kDs15,
      SchedulerKind::kDs2,  SchedulerKind::kDs,  SchedulerKind::kDsLearned};
  expect_points_equal(oracle_sweep(cfg, schedulers), run_experiment(cfg, schedulers).points);
}

TEST(MonteCarloGolden, DefaultSweepPointPinnedInHexFloats) {
  // The default Fig. 5/6 experiment (base seed 97, 24 segments, 100 runs)
  // swept at the single grid entry 10^-5.25, inside the error-rate wall. As
  // the only point it draws from point index 0, so its values differ from the
  // same p's row of the full sweep.
  ExperimentConfig cfg;
  const double p = cfg.error_probabilities.at(11);
  cfg.error_probabilities = {p};
  const auto result = run_experiment(cfg, kAllSchedulers);
  ASSERT_EQ(result.points.size(), 1u);
  const SweepPoint& point = result.points[0];
  EXPECT_EQ(point.avg_rollbacks_per_segment, 0x1.812c5f92c5f94p+0);
  EXPECT_EQ(point.sem_rollbacks, 0x1.5430a53005027p-5);
  EXPECT_EQ(point.hit_rate.at(SchedulerKind::kDs), 0x1.dddddddddddddp-3);
  EXPECT_EQ(point.hit_rate.at(SchedulerKind::kDs15), 0x1.80da740da740dp-1);
  EXPECT_EQ(point.hit_rate.at(SchedulerKind::kDs2), 0x1.e81b4e81b4e82p-1);
  EXPECT_EQ(point.hit_rate.at(SchedulerKind::kWcet), 0x1.a3a06d3a06d3bp-1);
  EXPECT_EQ(point.hit_rate.at(SchedulerKind::kDsLearned), 0x1.4147ae147ae15p-1);
}

}  // namespace
}  // namespace lore::rollback
