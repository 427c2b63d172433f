// Interrupt/resume equivalence for the real campaign entry points: an arch
// fault-injection campaign, a circuit stuck-at campaign, a cell-
// characterization grid, and the rollback Monte Carlo, each interrupted via
// `max_trials_per_run` slices and resumed from its checkpoint, must be
// bit-identical to the uninterrupted run — at 1, 4, and hardware threads.
#include <gtest/gtest.h>

#include <filesystem>
#include <thread>

#include "src/arch/fault.hpp"
#include "src/circuit/characterize.hpp"
#include "src/circuit/logicsim.hpp"
#include "src/circuit/netlist.hpp"
#include "src/rollback/montecarlo.hpp"

namespace lore {
namespace {

std::string temp_ckpt(const char* name) {
  return ::testing::TempDir() + "resume_" + name + ".ckpt";
}

std::vector<unsigned> thread_counts() {
  const unsigned hw = std::thread::hardware_concurrency();
  return {1u, 4u, hw ? hw : 2u};
}

/// Run `run(spec)` in `chunk`-sized slices until its report says complete.
template <typename RunFn>
auto run_in_slices(CampaignSpec spec, std::size_t chunk, const RunFn& run) {
  spec.max_trials_per_run = chunk;
  auto result = run(spec);
  for (int i = 0; i < 64 && !result.report.complete(); ++i) result = run(spec);
  EXPECT_TRUE(result.report.complete()) << "campaign never converged";
  return result;
}

TEST(DomainResume, ArchFaultCampaign) {
  const auto workload = arch::make_dot_product(12, 42);
  const arch::FaultInjector injector(workload);

  CampaignSpec spec;
  spec.trials = 150;
  spec.base_seed = 11;
  spec.checkpoint_every = 8;
  const auto reference = injector.campaign_run(spec, arch::FaultTarget::kRegister);
  ASSERT_TRUE(reference.report.complete());

  for (unsigned threads : thread_counts()) {
    CampaignSpec sliced = spec;
    sliced.threads = threads;
    sliced.checkpoint_path = temp_ckpt("arch");
    std::filesystem::remove(sliced.checkpoint_path);
    const auto resumed = run_in_slices(sliced, 40, [&](const CampaignSpec& s) {
      return injector.campaign_run(s, arch::FaultTarget::kRegister);
    });
    EXPECT_GT(resumed.report.resumed, 0u);
    EXPECT_EQ(resumed.records, reference.records) << "threads=" << threads;
  }
}

TEST(DomainResume, CircuitStuckAtCampaign) {
  const auto lib = circuit::make_skeleton_library("tech");
  const auto nl =
      circuit::generate_random_logic(lib, circuit::RandomLogicConfig{.num_gates = 40, .seed = 5});

  CampaignSpec spec;
  spec.trials = 24;
  spec.base_seed = 17;
  spec.checkpoint_every = 4;
  const auto reference = circuit::stuck_at_campaign_run(nl, spec);
  ASSERT_TRUE(reference.report.complete());

  for (unsigned threads : thread_counts()) {
    CampaignSpec sliced = spec;
    sliced.threads = threads;
    sliced.checkpoint_path = temp_ckpt("stuckat");
    std::filesystem::remove(sliced.checkpoint_path);
    const auto resumed = run_in_slices(sliced, 10, [&](const CampaignSpec& s) {
      return circuit::stuck_at_campaign_run(nl, s);
    });
    ASSERT_EQ(resumed.criticality.size(), reference.criticality.size());
    for (std::size_t g = 0; g < reference.criticality.size(); ++g) {
      EXPECT_EQ(resumed.criticality[g].stuck0_observability,
                reference.criticality[g].stuck0_observability)
          << "gate " << g << " threads " << threads;
      EXPECT_EQ(resumed.criticality[g].stuck1_observability,
                reference.criticality[g].stuck1_observability)
          << "gate " << g << " threads " << threads;
    }
  }
}

TEST(DomainResume, CharacterizationGrid) {
  const circuit::Characterizer characterizer(
      circuit::CharacterizerConfig{.slew_axis_ps = {10.0, 40.0},
                                   .load_axis_ff = {1.0, 4.0},
                                   .timestep_ps = 0.2},
      device::SelfHeatingModel{});
  const device::OperatingPoint op{};

  auto reference_lib = circuit::make_skeleton_library("tech");
  CampaignSpec spec;
  spec.base_seed = 1;
  const auto reference_report = characterizer.characterize_library(reference_lib, op, spec);
  ASSERT_TRUE(reference_report.complete());

  for (unsigned threads : thread_counts()) {
    auto lib = circuit::make_skeleton_library("tech");
    CampaignSpec sliced = spec;
    sliced.threads = threads;
    sliced.checkpoint_path = temp_ckpt("characterize");
    sliced.checkpoint_every = 1;
    sliced.max_trials_per_run = 3;
    std::filesystem::remove(sliced.checkpoint_path);
    CampaignReport report;
    for (int i = 0; i < 64; ++i) {
      report = characterizer.characterize_library(lib, op, sliced);
      if (report.complete()) break;
    }
    ASSERT_TRUE(report.complete());
    EXPECT_GT(report.resumed, 0u);
    for (std::size_t c = 0; c < reference_lib.size(); ++c) {
      const auto& want = reference_lib.cell(c);
      const auto& got = lib.cell(c);
      ASSERT_EQ(got.arcs.size(), want.arcs.size());
      for (std::size_t a = 0; a < want.arcs.size(); ++a) {
        const auto eq = [&](const circuit::TimingTable& x, const circuit::TimingTable& y) {
          ASSERT_EQ(x.values().size(), y.values().size());
          for (std::size_t v = 0; v < x.values().size(); ++v)
            EXPECT_EQ(x.values()[v], y.values()[v]) << "cell " << c << " arc " << a;
        };
        eq(got.arcs[a].rise_delay, want.arcs[a].rise_delay);
        eq(got.arcs[a].fall_delay, want.arcs[a].fall_delay);
        eq(got.arcs[a].rise_slew, want.arcs[a].rise_slew);
        eq(got.arcs[a].fall_slew, want.arcs[a].fall_slew);
      }
    }
  }
}

TEST(DomainResume, RollbackMonteCarlo) {
  rollback::ExperimentConfig cfg;
  cfg.error_probabilities = {1e-5, 1e-4};
  cfg.runs_per_point = 30;
  const std::vector<rollback::SchedulerKind> schedulers = {
      rollback::SchedulerKind::kDs, rollback::SchedulerKind::kDsLearned};
  const auto reference = rollback::run_experiment(cfg, schedulers);
  ASSERT_TRUE(reference.campaign_report.complete());

  for (unsigned threads : thread_counts()) {
    rollback::ExperimentConfig sliced = cfg;
    sliced.campaign.threads = threads;
    sliced.campaign.checkpoint_path = temp_ckpt("rollback");
    sliced.campaign.checkpoint_every = 5;
    sliced.campaign.max_trials_per_run = 25;
    std::filesystem::remove(sliced.campaign.checkpoint_path);
    rollback::ExperimentResult resumed;
    for (int i = 0; i < 64; ++i) {
      resumed = rollback::run_experiment(sliced, schedulers);
      if (resumed.campaign_report.complete()) break;
    }
    ASSERT_TRUE(resumed.campaign_report.complete());
    EXPECT_GT(resumed.campaign_report.resumed, 0u);
    ASSERT_EQ(resumed.points.size(), reference.points.size());
    for (std::size_t p = 0; p < reference.points.size(); ++p) {
      EXPECT_EQ(resumed.points[p].avg_rollbacks_per_segment,
                reference.points[p].avg_rollbacks_per_segment)
          << "point " << p << " threads " << threads;
      EXPECT_EQ(resumed.points[p].sem_rollbacks, reference.points[p].sem_rollbacks);
      EXPECT_EQ(resumed.points[p].hit_rate, reference.points[p].hit_rate);
    }
  }
}

}  // namespace
}  // namespace lore
