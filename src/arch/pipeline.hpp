// Cycle-accurate 5-stage in-order pipeline (IF/ID/EX/MEM/WB) with injectable
// pipeline-stage latches. Section V's error model says "a cycle is erroneous
// if any register of a pipeline stage contains a wrong value"; this machine
// makes that statement concrete: faults strike the actual latch fields
// (fetched instruction, read operands, ALU result, writeback value, PC), and
// the architectural outcome is measured against a golden run — linking the
// architecture layer to the per-cycle error probability p that the Section V
// analysis abstracts.
#pragma once

#include <array>
#include <cstdint>

#include "src/arch/cpu.hpp"
#include "src/arch/fault.hpp"
#include "src/arch/workloads.hpp"

namespace lore::arch {

/// The injectable latch fields of the pipeline.
enum class LatchField : std::uint8_t {
  kPc,            // fetch program counter
  kIfIdInstr,     // fetched instruction encoding (packed-field corruption)
  kIdExOperandA,  // first read operand value
  kIdExOperandB,  // second read operand / store data
  kExMemAlu,      // ALU result / memory address
  kMemWbValue,    // writeback value
};

struct PipelineFaultSite {
  LatchField field = LatchField::kExMemAlu;
  unsigned bit = 0;         // bit position (instruction field bits for kIfIdInstr)
  std::uint64_t cycle = 0;  // injection time
};

class PipelineCpu {
 public:
  // Pipeline-stage latches. Public because Snapshot (the batched campaign
  // engine's restore unit) carries them; injection still goes through
  // run_with_fault, never by poking latches directly.
  struct IfId {
    bool valid = false;
    Instruction ins{};
  };
  struct IdEx {
    bool valid = false;
    Instruction ins{};
    std::uint32_t a = 0, b = 0;       // operand values after forwarding
    std::uint32_t store_val = 0;      // rs2 value for stores
  };
  struct ExMem {
    bool valid = false;
    Instruction ins{};
    std::uint32_t alu = 0;            // result or memory address
    std::uint32_t store_val = 0;
  };
  struct MemWb {
    bool valid = false;
    Instruction ins{};
    std::uint32_t value = 0;
  };

  /// Full machine state minus memory (register file, PC, latches, counters).
  /// Memory is deliberately excluded: the batched campaign engine restores it
  /// via an undo log of `MemWrite`s, which is O(stores) instead of O(words).
  struct Snapshot {
    std::uint64_t cycles = 0;
    std::uint32_t pc = 0;
    std::uint64_t retired = 0;
    std::uint64_t stalls = 0;
    std::uint64_t flushes = 0;
    RunState state = RunState::kRunning;
    bool halt_seen = false;
    IfId if_id{};
    IdEx id_ex{};
    ExMem ex_mem{};
    MemWb mem_wb{};
    std::array<std::uint32_t, kNumRegisters> regs{};
  };

  explicit PipelineCpu(std::size_t memory_words = 4096);

  void load_program(Program program);
  void reset(bool clear_memory = false);

  /// Advance one clock cycle.
  RunState step();
  RunState run(std::uint64_t max_cycles);
  /// Run and inject one latch fault at the site's cycle.
  RunState run_with_fault(std::uint64_t max_cycles, const PipelineFaultSite& site);

  RunState state() const { return state_; }
  std::uint64_t cycles() const { return cycles_; }
  std::uint32_t reg(std::size_t index) const;
  std::uint32_t mem(std::size_t word) const;
  void set_mem(std::size_t word, std::uint32_t value);
  std::size_t memory_words() const { return memory_.size(); }
  std::span<const std::uint32_t> memory() const { return memory_; }

  /// Capture / restore everything but memory (see Snapshot).
  Snapshot capture() const;
  void restore(const Snapshot& snap);

  /// Record every retired store (and nothing else — `set_mem` is the restore
  /// primitive) into `log`; nullptr stops logging.
  void set_write_log(std::vector<MemWrite>* log) { write_log_ = log; }

  /// Dynamic instruction count retired (for CPI accounting).
  std::uint64_t instructions_retired() const { return retired_; }
  double cpi() const {
    return retired_ ? static_cast<double>(cycles_) / static_cast<double>(retired_) : 0.0;
  }
  std::uint64_t stall_cycles() const { return stalls_; }
  std::uint64_t flush_cycles() const { return flushes_; }

 private:
  void apply_fault(const PipelineFaultSite& site);

  Program program_;
  std::vector<std::uint32_t> regs_;
  std::vector<std::uint32_t> memory_;
  std::uint32_t pc_ = 0;
  std::uint64_t cycles_ = 0;
  std::uint64_t retired_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t flushes_ = 0;
  RunState state_ = RunState::kRunning;
  bool halt_seen_ = false;  // stop fetching once HALT enters the pipe

  IfId if_id_{};
  IdEx id_ex_{};
  ExMem ex_mem_{};
  MemWb mem_wb_{};
  std::vector<MemWrite>* write_log_ = nullptr;
};

/// Run a workload on the pipeline and compare architectural results against
/// the functional CPU's golden run; returns true when they agree.
bool pipeline_matches_golden(const Workload& w);

/// Outcome of a single pipeline-latch fault on a workload. The single-trial
/// reference the `simd` differential suite holds pipeline campaigns to.
Outcome pipeline_inject(const Workload& w, const PipelineFaultSite& site);

/// Campaign of random latch faults on the resilient runtime (checkpoint/
/// resume, deadlines, partial reports — src/common/campaign.hpp); returns the
/// outcome records plus the campaign report. The FaultSite in each record
/// carries the field in `index` and bit/cycle. Counter-based per-trial
/// seeding: bit-identical for every thread count and across interrupt/resume.
CampaignResult<FaultRecord> pipeline_campaign_run(const Workload& w,
                                                  const CampaignSpec& spec);

/// Convenience: records of `pipeline_campaign_run`.
std::vector<FaultRecord> pipeline_campaign(const Workload& w, const CampaignSpec& spec);

/// Copy of `spec` with the campaign's domain fingerprint filled in when
/// empty — the identity the fabric coordinator validates shard payloads
/// against (runs the clean pipeline probe to learn the cycle count).
CampaignSpec pipeline_campaign_spec(const Workload& w, const CampaignSpec& spec);

/// Fabric worker entry point: run trials [range.begin, range.end) of the
/// latch-fault campaign — identical per-trial seeding and site distribution
/// to `pipeline_campaign_run` — returned as a LORECKP1-ready checkpoint
/// payload (DESIGN.md §12).
CampaignCheckpoint pipeline_campaign_shard(const Workload& w, const CampaignSpec& spec,
                                           TrialRange range);

/// Decode a merged fabric checkpoint of this campaign kind into records.
CampaignResult<FaultRecord> pipeline_records_from_checkpoint(
    const CampaignSpec& spec, const CampaignCheckpoint& ck);

/// Positional convenience over the spec entry point (no checkpointing).
std::vector<FaultRecord> pipeline_campaign(const Workload& w, std::size_t trials,
                                           std::uint64_t base_seed, unsigned threads = 0);

/// Derived quantity for Section V: the probability that a random single-bit
/// latch upset corrupts architectural state (i.e. the fraction of non-benign
/// outcomes). Multiplying a raw per-cycle upset rate by this factor yields
/// the effective per-cycle error probability p of the Sec. V model.
double architectural_corruption_factor(const std::vector<FaultRecord>& campaign);

}  // namespace lore::arch
