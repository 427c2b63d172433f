// Serial-vs-parallel equivalence of every ported campaign consumer. These
// tests ARE the determinism contract of src/common/parallel: a campaign's
// output may depend only on (inputs, base seed) — never on thread count or
// scheduling. They double as the race suite for `ctest -L parallel` under
// the ThreadSanitizer preset (-DLORE_SANITIZE=thread).
#include <gtest/gtest.h>

#include <cmath>

#include "src/arch/fault.hpp"
#include "src/arch/workloads.hpp"
#include "src/circuit/aging_flow.hpp"
#include "src/circuit/characterize.hpp"
#include "src/circuit/liberty.hpp"
#include "src/common/parallel.hpp"
#include "src/rollback/montecarlo.hpp"

namespace {

using namespace lore;

TEST(FaultCampaignDeterminism, BitIdenticalAcrossThreadCounts) {
  const auto w = arch::make_checksum(12, 5);
  const arch::FaultInjector injector(w);
  for (auto target : {arch::FaultTarget::kRegister, arch::FaultTarget::kMemory,
                      arch::FaultTarget::kInstruction}) {
    const auto serial = injector.campaign(400, target, 2024, 1);
    ASSERT_EQ(serial.size(), 400u);
    for (unsigned threads : {2u, 8u}) {
      const auto parallel = injector.campaign(400, target, 2024, threads);
      EXPECT_TRUE(serial == parallel)
          << "target=" << static_cast<int>(target) << " threads=" << threads;
    }
  }
}

TEST(FaultCampaignDeterminism, DifferentSeedsDifferentCampaigns) {
  const auto w = arch::make_dot_product(12, 3);
  const arch::FaultInjector injector(w);
  const auto a = injector.campaign(200, arch::FaultTarget::kRegister, 1, 8);
  const auto b = injector.campaign(200, arch::FaultTarget::kRegister, 2, 8);
  EXPECT_FALSE(a == b);
}

TEST(FaultCampaignDeterminism, EveryRecordReplaysInIsolation) {
  const auto w = arch::make_dot_product(10, 7);
  const arch::FaultInjector injector(w);
  const auto campaign = injector.campaign(100, arch::FaultTarget::kRegister, 99, 8);
  for (const auto& rec : campaign) {
    EXPECT_NE(rec.trial_seed, 0u);
    const auto replayed = injector.replay_trial(rec.trial_seed, rec.site.target);
    EXPECT_TRUE(replayed == rec);
  }
}

TEST(MonteCarloDeterminism, ExperimentBitIdenticalAcrossThreadCounts) {
  rollback::ExperimentConfig cfg;
  cfg.error_probabilities = {1e-7, 1e-5, 1e-4};
  cfg.runs_per_point = 40;
  const std::vector<rollback::SchedulerKind> schedulers = {
      rollback::SchedulerKind::kDs, rollback::SchedulerKind::kWcet,
      rollback::SchedulerKind::kDsLearned};

  cfg.campaign.threads = 1;
  const auto serial = rollback::run_experiment(cfg, schedulers);
  cfg.campaign.threads = 8;
  const auto parallel = rollback::run_experiment(cfg, schedulers);

  ASSERT_EQ(serial.points.size(), parallel.points.size());
  for (std::size_t i = 0; i < serial.points.size(); ++i) {
    const auto& s = serial.points[i];
    const auto& p = parallel.points[i];
    EXPECT_EQ(s.p, p.p);
    EXPECT_EQ(s.avg_rollbacks_per_segment, p.avg_rollbacks_per_segment);
    EXPECT_EQ(s.sem_rollbacks, p.sem_rollbacks);
    ASSERT_EQ(s.hit_rate.size(), p.hit_rate.size());
    for (const auto& [kind, rate] : s.hit_rate) EXPECT_EQ(rate, p.hit_rate.at(kind));
  }
  for (auto kind : schedulers)
    EXPECT_EQ(serial.wall_position(kind), parallel.wall_position(kind));
}

TEST(CharacterizeDeterminism, LibraryBitIdenticalAcrossThreadCounts) {
  const circuit::CharacterizerConfig grid{.slew_axis_ps = {10.0, 40.0, 160.0},
                                          .load_axis_ff = {2.0, 8.0, 24.0},
                                          .timestep_ps = 0.2};
  circuit::Characterizer characterizer(grid, device::SelfHeatingModel{});
  const device::OperatingPoint op{};

  auto serial_lib = circuit::make_skeleton_library("serial");
  characterizer.characterize_library(serial_lib, op, 1);
  const std::size_t serial_evals = characterizer.evaluations();

  auto parallel_lib = circuit::make_skeleton_library("parallel");
  characterizer.reset_evaluations();
  characterizer.characterize_library(parallel_lib, op, 8);
  EXPECT_EQ(characterizer.evaluations(), serial_evals);

  ASSERT_EQ(serial_lib.size(), parallel_lib.size());
  for (std::size_t c = 0; c < serial_lib.size(); ++c) {
    const auto& sc = serial_lib.cell(c);
    const auto& pc = parallel_lib.cell(c);
    ASSERT_EQ(sc.arcs.size(), pc.arcs.size());
    for (std::size_t a = 0; a < sc.arcs.size(); ++a) {
      const auto sv = sc.arcs[a].rise_delay.values();
      const auto pv = pc.arcs[a].rise_delay.values();
      ASSERT_EQ(sv.size(), pv.size());
      for (std::size_t i = 0; i < sv.size(); ++i) EXPECT_EQ(sv[i], pv[i]);
      const auto sf = sc.arcs[a].fall_slew.values();
      const auto pf = pc.arcs[a].fall_slew.values();
      for (std::size_t i = 0; i < sf.size(); ++i) EXPECT_EQ(sf[i], pf[i]);
    }
    const auto st = sc.she_temperature.values();
    const auto pt = pc.she_temperature.values();
    ASSERT_EQ(st.size(), pt.size());
    for (std::size_t i = 0; i < st.size(); ++i) EXPECT_EQ(st[i], pt[i]);
  }
}

void expect_same_arcs(const std::vector<circuit::TimingArc>& want,
                      const std::vector<circuit::TimingArc>& got) {
  ASSERT_EQ(want.size(), got.size());
  const auto same = [](const circuit::TimingTable& a, const circuit::TimingTable& b) {
    ASSERT_EQ(a.values().size(), b.values().size());
    for (std::size_t i = 0; i < a.values().size(); ++i) EXPECT_EQ(a.values()[i], b.values()[i]);
  };
  for (std::size_t a = 0; a < want.size(); ++a) {
    EXPECT_EQ(want[a].input_pin, got[a].input_pin);
    same(want[a].rise_delay, got[a].rise_delay);
    same(want[a].fall_delay, got[a].fall_delay);
    same(want[a].rise_slew, got[a].rise_slew);
    same(want[a].fall_slew, got[a].fall_slew);
  }
}

TEST(CharacterizeDeterminism, InstanceLibrariesMatchSerialCellLoop) {
  const circuit::CharacterizerConfig grid{.slew_axis_ps = {10.0, 40.0, 160.0},
                                          .load_axis_ff = {1.0, 4.0, 16.0},
                                          .timestep_ps = 0.3};
  circuit::Characterizer characterizer(grid, device::SelfHeatingModel{});
  const circuit::AgingFlowConfig aging_cfg{};
  const circuit::SheFlowConfig she_cfg{.chip_temperature = aging_cfg.chip_temperature};
  auto lib = circuit::make_skeleton_library("tech");
  device::OperatingPoint typical{};
  typical.temperature = aging_cfg.chip_temperature;
  characterizer.characterize_library(lib, typical);
  const auto nl = circuit::generate_core_like(
      lib, circuit::CoreLikeConfig{.pipeline_stages = 2, .regs_per_stage = 3,
                                   .gates_per_stage = 16});
  const circuit::StaEngine sta;
  const auto she = circuit::instance_she_rise(nl, sta.run(nl, circuit::LibraryDelayModel()),
                                              grid.she_reference_toggle_ghz);
  const auto dvth = circuit::instance_aging_dvth(nl, she, device::AgingModel{}, aging_cfg);
  const std::vector<double> corner_dvth(nl.num_instances(), lib.corner().delta_vth);

  // The reference: one characterize_cell per instance, in instance order.
  const auto serial_loop = [&](const std::vector<double>& shift) {
    std::vector<std::vector<circuit::TimingArc>> arcs(nl.num_instances());
    for (std::size_t i = 0; i < nl.num_instances(); ++i) {
      circuit::Cell cell = lib.cell(nl.instance(i).cell_id);
      device::OperatingPoint op = lib.corner();
      op.temperature = aging_cfg.chip_temperature + she[i];
      op.delta_vth = shift[i];
      characterizer.characterize_cell(cell, op);
      arcs[i] = std::move(cell.arcs);
    }
    return arcs;
  };
  characterizer.reset_evaluations();
  const auto exact_want = serial_loop(corner_dvth);
  const std::size_t loop_evals = characterizer.evaluations();
  ASSERT_GT(loop_evals, 0u);
  const auto aged_want = serial_loop(dvth);
  ASSERT_NE(exact_want[0][0].rise_delay.at(1, 1), aged_want[0][0].rise_delay.at(1, 1));

  for (const unsigned threads : {1u, 4u, 0u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    characterizer.reset_evaluations();
    const auto exact =
        circuit::build_exact_instance_library(nl, she, characterizer, she_cfg, threads);
    EXPECT_EQ(characterizer.evaluations(), loop_evals);
    characterizer.reset_evaluations();
    const auto aged = circuit::build_aged_instance_library(nl, she, dvth, characterizer,
                                                           aging_cfg, threads);
    EXPECT_EQ(characterizer.evaluations(), loop_evals);
    ASSERT_EQ(exact.tables().size(), nl.num_instances());
    ASSERT_EQ(aged.tables().size(), nl.num_instances());
    for (std::size_t i = 0; i < nl.num_instances(); ++i) {
      expect_same_arcs(exact_want[i], exact.tables()[i].arcs);
      expect_same_arcs(aged_want[i], aged.tables()[i].arcs);
    }
  }
}

TEST(CampaignStress, ConcurrentCampaignsOnOneInjector) {
  // Several threads each run full campaigns against one shared injector —
  // the const-path (golden run, workload) must be data-race free under TSan.
  const auto w = arch::make_checksum(10, 9);
  const arch::FaultInjector injector(w);
  std::vector<std::vector<arch::FaultRecord>> results(4);
  parallel_for(results.size(), 4, [&](std::size_t i) {
    results[i] = injector.campaign(150, arch::FaultTarget::kMemory, 7, 1);
  });
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_TRUE(results[0] == results[i]);
}

}  // namespace
