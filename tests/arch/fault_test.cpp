#include "src/arch/fault.hpp"

#include <gtest/gtest.h>

#include <map>

#include "src/arch/def_use.hpp"
#include "src/obs/obs.hpp"

namespace lore::arch {
namespace {

class FaultTest : public ::testing::Test {
 protected:
  FaultTest() : workload_(make_dot_product(12, 42)), injector_(workload_) {}
  Workload workload_;
  FaultInjector injector_;
};

TEST_F(FaultTest, GoldenRunCaptured) {
  EXPECT_GT(injector_.golden().cycles, 0u);
  EXPECT_EQ(injector_.golden().output.size(), 1u);
}

TEST_F(FaultTest, InjectionIsDeterministic) {
  const FaultSite site{FaultTarget::kRegister, 3, 7, 20};
  const auto a = injector_.inject(site);
  const auto b = injector_.inject(site);
  EXPECT_EQ(a.outcome, b.outcome);
  EXPECT_EQ(a.active_instruction, b.active_instruction);
}

TEST_F(FaultTest, LateInjectionIsBenign) {
  // Injection after program completion cannot corrupt the output.
  FaultSite site{FaultTarget::kRegister, 3, 7, injector_.golden().cycles + 100};
  EXPECT_EQ(injector_.inject(site).outcome, Outcome::kBenign);
}

TEST_F(FaultTest, UnusedRegisterIsBenign) {
  // r15 is never used by the dot product kernel.
  FaultSite site{FaultTarget::kRegister, 15, 5, 10};
  EXPECT_EQ(injector_.inject(site).outcome, Outcome::kBenign);
}

TEST_F(FaultTest, AccumulatorFaultCausesSdc) {
  // r3 is the accumulator; flipping a high bit just before the store must
  // change the stored result.
  FaultSite site{FaultTarget::kRegister, 3, 30, injector_.golden().cycles - 3};
  EXPECT_EQ(injector_.inject(site).outcome, Outcome::kSdc);
}

TEST_F(FaultTest, OutputMemoryFaultAfterStoreIsSdc) {
  FaultSite site{FaultTarget::kMemory, workload_.output_base, 4,
                 injector_.golden().cycles - 1};
  EXPECT_EQ(injector_.inject(site).outcome, Outcome::kSdc);
}

TEST_F(FaultTest, CampaignProducesAllRecords) {
  lore::Rng rng(1);
  const auto records = injector_.campaign(200, FaultTarget::kRegister, rng.next_u64());
  EXPECT_EQ(records.size(), 200u);
  const auto mix = summarize(records);
  EXPECT_EQ(mix.total(), 200u);
  EXPECT_GT(mix.benign, 0u);             // most register bits are dead
  EXPECT_GT(mix.sdc + mix.crash + mix.hang, 0u);  // some must fail
}

TEST_F(FaultTest, AvfMatchesSummary) {
  lore::Rng rng(2);
  const auto records = injector_.campaign(150, FaultTarget::kRegister, rng.next_u64());
  const auto mix = summarize(records);
  EXPECT_DOUBLE_EQ(avf(records), mix.fraction_failure());
}

TEST_F(FaultTest, InstructionFaultsCanCrash) {
  lore::Rng rng(3);
  const auto records = injector_.campaign(300, FaultTarget::kInstruction, rng.next_u64());
  const auto mix = summarize(records);
  // Opcode/field corruption is much more disruptive than register noise.
  EXPECT_GT(mix.fraction_failure(), 0.05);
}

TEST_F(FaultTest, RandomSitesRespectBounds) {
  lore::Rng rng(4);
  for (int i = 0; i < 200; ++i) {
    const auto site = injector_.random_site(rng, FaultTarget::kRegister);
    EXPECT_LT(site.index, kNumRegisters);
    EXPECT_LT(site.bit, 32u);
    EXPECT_LE(site.cycle, injector_.golden().cycles);
    const auto isite = injector_.random_site(rng, FaultTarget::kInstruction);
    EXPECT_LT(isite.index, workload_.program.size());
  }
}

TEST(OutcomeNames, AllDistinct) {
  EXPECT_EQ(outcome_name(Outcome::kBenign), "benign");
  EXPECT_EQ(outcome_name(Outcome::kSdc), "sdc");
  EXPECT_EQ(outcome_name(Outcome::kCrash), "crash");
  EXPECT_EQ(outcome_name(Outcome::kHang), "hang");
  EXPECT_EQ(outcome_name(Outcome::kDetected), "detected");
}

// ---------------------------------------------------------------------------
// Dead sites (DESIGN.md §11): the batched campaign body skips simulating a
// flip the golden run never reads again. Every case below must equal the
// single-trial reference `replay_trial`, which always simulates.

/// Def-use index of `w`'s golden run, recorded as the campaign engine does.
DefUseIndex golden_def_use(const Workload& w) {
  DefUseIndex du(w.program, data_window_words(w));
  Cpu cpu(w.memory_words);
  cpu.load_program(w.program);
  for (const auto& [addr, value] : w.memory_init) cpu.set_mem(addr, value);
  while (cpu.state() == RunState::kRunning) {
    du.record(cpu);
    cpu.step_fast();
  }
  du.seal();
  return du;
}

/// Eight instructions, one per cycle, so golden cycle t executes index t.
Workload boundary_workload() {
  Workload w;
  w.name = "dead_site_boundaries";
  w.program = {
      li(1, 3),        // 0: r1 = 3
      ld(2, 1, 0),     // 1: r2 = mem[3] = 1
      ld(2, 2, 0),     // 2: r2 = mem[r2] = mem[1] = 40 (reads and writes r2)
      add(3, 2, 1),    // 3: r3 = 43
      li(2, 9),        // 4: r2 written before any read
      st(3, 0, 4),     // 5: mem[4] = r3 (output word 4)
      st(2, 0, 0),     // 6: mem[0] = r2 (never read)
      halt(),          // 7
  };
  w.memory_init = {{1, 40}, {3, 1}};
  w.output_base = 4;
  w.output_words = 2;  // word 5 is never touched
  w.memory_words = 64;
  return w;
}

class DeadSiteTest : public ::testing::Test {
 protected:
  DeadSiteTest()
      : workload_(boundary_workload()), injector_(workload_), du_(golden_def_use(workload_)) {}

  /// Campaign records of `target` at (index, cycle), each first checked
  /// against replay_trial; at least one must exist.
  std::vector<FaultRecord> records_at(FaultTarget target, std::size_t index,
                                      std::uint64_t cycle) {
    auto& records = campaigns_[target];
    if (records.empty()) {
      records = injector_.campaign(4000, target, 99, 4);
      for (const auto& rec : records)
        EXPECT_TRUE(rec == injector_.replay_trial(rec.trial_seed, target))
            << "index " << rec.site.index << " bit " << rec.site.bit << " cycle "
            << rec.site.cycle;
    }
    std::vector<FaultRecord> hits;
    for (const auto& rec : records)
      if (rec.site.index == index && rec.site.cycle == cycle) hits.push_back(rec);
    EXPECT_FALSE(hits.empty()) << "no trial at index " << index << " cycle " << cycle;
    return hits;
  }

  Workload workload_;
  FaultInjector injector_;
  DefUseIndex du_;
  std::map<FaultTarget, std::vector<FaultRecord>> campaigns_;
};

TEST_F(DeadSiteTest, GoldenRunIsEightCycles) {
  ASSERT_EQ(injector_.golden().cycles, 8u);
  EXPECT_EQ(injector_.golden().output, (std::vector<std::uint32_t>{43, 0}));
}

TEST_F(DeadSiteTest, NextInstructionReadsTheRegisterSoItIsSimulated) {
  EXPECT_EQ(du_.next_register_access(2, 3), DefUseIndex::Next::kRead);
  for (const auto& rec : records_at(FaultTarget::kRegister, 2, 3))
    EXPECT_EQ(rec.outcome, Outcome::kSdc);
}

TEST_F(DeadSiteTest, WriteBeforeReadIsBenign) {
  EXPECT_EQ(du_.next_register_access(2, 4), DefUseIndex::Next::kWrite);
  for (const auto& rec : records_at(FaultTarget::kRegister, 2, 4))
    EXPECT_EQ(rec.outcome, Outcome::kBenign);
  EXPECT_EQ(du_.next_memory_access(0, 1), DefUseIndex::Next::kWrite);
  for (const auto& rec : records_at(FaultTarget::kMemory, 0, 1))
    EXPECT_EQ(rec.outcome, Outcome::kBenign);
}

TEST_F(DeadSiteTest, LoadIntoItsOwnBaseRegisterCountsAsRead) {
  // `ld r2, r2+0`: the flip moves the address, so it must be simulated.
  EXPECT_EQ(du_.next_register_access(2, 2), DefUseIndex::Next::kRead);
  for (const auto& rec : records_at(FaultTarget::kRegister, 2, 2))
    EXPECT_NE(rec.outcome, Outcome::kBenign);
}

TEST_F(DeadSiteTest, UntouchedOutputWordIsSimulatedAsSdc) {
  EXPECT_EQ(du_.next_memory_access(5, 1), DefUseIndex::Next::kNone);
  for (const auto& rec : records_at(FaultTarget::kMemory, 5, 1))
    EXPECT_EQ(rec.outcome, Outcome::kSdc);
  // Output word 4 after its only store.
  EXPECT_EQ(du_.next_memory_access(4, 6), DefUseIndex::Next::kNone);
  for (const auto& rec : records_at(FaultTarget::kMemory, 4, 6))
    EXPECT_EQ(rec.outcome, Outcome::kSdc);
  // A consumed input word is dead; the same word before its load is not.
  EXPECT_EQ(du_.next_memory_access(3, 1), DefUseIndex::Next::kRead);
  EXPECT_EQ(du_.next_memory_access(3, 2), DefUseIndex::Next::kNone);
  for (const auto& rec : records_at(FaultTarget::kMemory, 3, 2))
    EXPECT_EQ(rec.outcome, Outcome::kBenign);
}

TEST_F(DeadSiteTest, InjectionAtTheHaltingCycle) {
  const std::uint64_t end = injector_.golden().cycles;
  EXPECT_EQ(du_.next_register_access(3, end), DefUseIndex::Next::kNone);
  for (const auto& rec : records_at(FaultTarget::kRegister, 3, end)) {
    EXPECT_EQ(rec.outcome, Outcome::kBenign);
    EXPECT_EQ(rec.active_instruction, -1);
  }
  for (const auto& rec : records_at(FaultTarget::kMemory, 4, end))
    EXPECT_EQ(rec.outcome, Outcome::kSdc);
  for (const auto& rec : records_at(FaultTarget::kInstruction, 7, end))
    EXPECT_EQ(rec.outcome, Outcome::kBenign);
}

TEST_F(DeadSiteTest, InstructionNeverFetchedAgainIsBenign) {
  EXPECT_FALSE(du_.fetched_from(0, 1));
  for (const auto& rec : records_at(FaultTarget::kInstruction, 0, 1))
    EXPECT_EQ(rec.outcome, Outcome::kBenign);
  // Index 3 is fetched at cycle 3, so a flip just before it is simulated.
  EXPECT_TRUE(du_.fetched_from(3, 3));
  EXPECT_FALSE(du_.fetched_from(3, 4));
  bool failed = false;
  for (const auto& rec : records_at(FaultTarget::kInstruction, 3, 3))
    failed = failed || rec.outcome != Outcome::kBenign;
  EXPECT_TRUE(failed);
}

TEST_F(DeadSiteTest, CounterCountsEveryDeadTrialOnce) {
  if (!obs::kCompiledIn || !obs::enabled()) GTEST_SKIP() << "observability is off";
  auto& counter = obs::MetricsRegistry::global().counter("arch.fault.dead_site_trials");
  const std::uint64_t before = counter.value();
  lore::CampaignSpec spec;
  spec.trials = 3000;
  spec.base_seed = 5;
  spec.threads = 4;
  const auto records = injector_.campaign(spec, FaultTarget::kRegister);
  std::uint64_t dead = 0;
  for (const auto& rec : records)
    dead += du_.next_register_access(rec.site.index, rec.site.cycle) !=
            DefUseIndex::Next::kRead;
  EXPECT_GT(dead, 0u);
  EXPECT_EQ(counter.value() - before, dead);
}

TEST(DefUseIndexTest, RegisterEventsMatchProfiledTallies) {
  // Step each golden run with the profiled interpreter: an instruction that
  // bumps a register's read tally is a read event, one that bumps only its
  // write tally a write event, and nothing else is recorded.
  std::vector<Workload> workloads = standard_workloads(2, 17);
  workloads.push_back(make_random_program(60, 3));
  workloads.push_back(boundary_workload());
  for (const auto& w : workloads) {
    const DefUseIndex du = golden_def_use(w);
    std::vector<std::vector<std::uint64_t>> expected(kNumRegisters);
    Cpu cpu(w.memory_words);
    cpu.load_program(w.program);
    for (const auto& [addr, value] : w.memory_init) cpu.set_mem(addr, value);
    while (cpu.state() == RunState::kRunning) {
      const std::uint64_t t = cpu.cycles();
      const std::vector<std::uint64_t> reads(cpu.register_reads().begin(),
                                             cpu.register_reads().end());
      const std::vector<std::uint64_t> writes(cpu.register_writes().begin(),
                                              cpu.register_writes().end());
      cpu.step();
      for (std::size_t r = 0; r < kNumRegisters; ++r) {
        if (cpu.register_reads()[r] != reads[r])
          expected[r].push_back(t << 1);
        else if (cpu.register_writes()[r] != writes[r])
          expected[r].push_back(t << 1 | 1);
      }
    }
    for (std::size_t r = 0; r < kNumRegisters; ++r) {
      const auto got = du.register_events(r);
      EXPECT_EQ(std::vector<std::uint64_t>(got.begin(), got.end()), expected[r])
          << w.name << " r" << r;
    }
  }
}

}  // namespace
}  // namespace lore::arch
