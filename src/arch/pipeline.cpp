#include "src/arch/pipeline.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cstdio>

#include "src/arch/fault.hpp"
#include "src/common/kernels.hpp"
#include "src/common/parallel.hpp"
#include "src/obs/obs.hpp"

namespace lore::arch {

PipelineCpu::PipelineCpu(std::size_t memory_words)
    : regs_(kNumRegisters, 0), memory_(memory_words, 0) {}

void PipelineCpu::load_program(Program program) {
  program_ = std::move(program);
  reset();
}

void PipelineCpu::reset(bool clear_memory) {
  std::fill(regs_.begin(), regs_.end(), 0);
  if (clear_memory) std::fill(memory_.begin(), memory_.end(), 0);
  pc_ = 0;
  cycles_ = 0;
  retired_ = 0;
  stalls_ = 0;
  flushes_ = 0;
  state_ = RunState::kRunning;
  halt_seen_ = false;
  if_id_ = {};
  id_ex_ = {};
  ex_mem_ = {};
  mem_wb_ = {};
}

std::uint32_t PipelineCpu::reg(std::size_t index) const {
  assert(index < kNumRegisters);
  return regs_[index];
}

std::uint32_t PipelineCpu::mem(std::size_t word) const {
  assert(word < memory_.size());
  return memory_[word];
}

void PipelineCpu::set_mem(std::size_t word, std::uint32_t value) {
  assert(word < memory_.size());
  memory_[word] = value;
}

PipelineCpu::Snapshot PipelineCpu::capture() const {
  Snapshot snap;
  snap.cycles = cycles_;
  snap.pc = pc_;
  snap.retired = retired_;
  snap.stalls = stalls_;
  snap.flushes = flushes_;
  snap.state = state_;
  snap.halt_seen = halt_seen_;
  snap.if_id = if_id_;
  snap.id_ex = id_ex_;
  snap.ex_mem = ex_mem_;
  snap.mem_wb = mem_wb_;
  std::copy(regs_.begin(), regs_.end(), snap.regs.begin());
  return snap;
}

void PipelineCpu::restore(const Snapshot& snap) {
  cycles_ = snap.cycles;
  pc_ = snap.pc;
  retired_ = snap.retired;
  stalls_ = snap.stalls;
  flushes_ = snap.flushes;
  state_ = snap.state;
  halt_seen_ = snap.halt_seen;
  if_id_ = snap.if_id;
  id_ex_ = snap.id_ex;
  ex_mem_ = snap.ex_mem;
  mem_wb_ = snap.mem_wb;
  std::copy(snap.regs.begin(), snap.regs.end(), regs_.begin());
}

RunState PipelineCpu::step() {
  if (state_ != RunState::kRunning) return state_;
  ++cycles_;

  // ---- WB: retire the oldest instruction.
  if (mem_wb_.valid) {
    if (writes_register(mem_wb_.ins.op)) regs_[mem_wb_.ins.rd] = mem_wb_.value;
    ++retired_;
    if (mem_wb_.ins.op == Opcode::kHalt) {
      state_ = RunState::kHalted;
      return state_;
    }
  }

  // ---- MEM: memory access on the EX/MEM latch.
  MemWb new_wb{};
  if (ex_mem_.valid) {
    new_wb.valid = true;
    new_wb.ins = ex_mem_.ins;
    switch (ex_mem_.ins.op) {
      case Opcode::kLd:
        if (ex_mem_.alu >= memory_.size()) {
          state_ = RunState::kTrapped;
          return state_;
        }
        new_wb.value = memory_[ex_mem_.alu];
        break;
      case Opcode::kSt:
        if (ex_mem_.alu >= memory_.size()) {
          state_ = RunState::kTrapped;
          return state_;
        }
        if (write_log_)
          write_log_->push_back({ex_mem_.alu, memory_[ex_mem_.alu], ex_mem_.store_val});
        memory_[ex_mem_.alu] = ex_mem_.store_val;
        break;
      default:
        new_wb.value = ex_mem_.alu;
        break;
    }
  }

  // ---- EX: compute on the ID/EX latch; resolve branches.
  ExMem new_mem{};
  bool redirect = false;
  std::uint32_t redirect_pc = 0;
  if (id_ex_.valid) {
    new_mem.valid = true;
    new_mem.ins = id_ex_.ins;
    new_mem.store_val = id_ex_.store_val;
    const Instruction& ins = id_ex_.ins;
    const std::uint32_t a = id_ex_.a, b = id_ex_.b;
    auto branch_to = [&](std::int32_t target) {
      if (target < 0 || static_cast<std::size_t>(target) > program_.size()) {
        state_ = RunState::kTrapped;
        return false;
      }
      redirect = true;
      redirect_pc = static_cast<std::uint32_t>(target);
      return true;
    };
    switch (ins.op) {
      case Opcode::kAdd: new_mem.alu = a + b; break;
      case Opcode::kSub: new_mem.alu = a - b; break;
      case Opcode::kMul: new_mem.alu = a * b; break;
      case Opcode::kAnd: new_mem.alu = a & b; break;
      case Opcode::kOr: new_mem.alu = a | b; break;
      case Opcode::kXor: new_mem.alu = a ^ b; break;
      case Opcode::kShl: new_mem.alu = a << (b & 31u); break;
      case Opcode::kShr: new_mem.alu = a >> (b & 31u); break;
      case Opcode::kAddi: new_mem.alu = a + static_cast<std::uint32_t>(ins.imm); break;
      case Opcode::kLi: new_mem.alu = static_cast<std::uint32_t>(ins.imm); break;
      case Opcode::kLd:
      case Opcode::kSt: new_mem.alu = a + static_cast<std::uint32_t>(ins.imm); break;
      case Opcode::kBeq:
        if (a == b && !branch_to(ins.imm)) return state_;
        break;
      case Opcode::kBne:
        if (a != b && !branch_to(ins.imm)) return state_;
        break;
      case Opcode::kBlt:
        if (static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b) &&
            !branch_to(ins.imm))
          return state_;
        break;
      case Opcode::kJmp:
        if (!branch_to(ins.imm)) return state_;
        break;
      case Opcode::kNop:
      case Opcode::kHalt: break;
    }
  }

  // ---- ID: decode + forwarded operand read; load-use hazard detection.
  // Forwarding reads the values computed THIS cycle: new_mem carries the
  // instruction that just finished EX (1 ahead), new_wb the one that just
  // finished MEM (2 ahead, including load data); 3-ahead writers already
  // retired into the register file at the top of this function.
  auto read_forwarded = [&](unsigned r) -> std::uint32_t {
    if (new_mem.valid && writes_register(new_mem.ins.op) &&
        new_mem.ins.op != Opcode::kLd && new_mem.ins.rd == r)
      return new_mem.alu;
    if (new_wb.valid && writes_register(new_wb.ins.op) && new_wb.ins.rd == r)
      return new_wb.value;
    return regs_[r];
  };
  bool stall = false;
  IdEx new_ex{};
  if (if_id_.valid) {
    const Instruction& ins = if_id_.ins;
    const auto sources = source_registers(ins);
    // Load-use hazard: a load one ahead (its EX ran this cycle) has no data
    // until its MEM completes next cycle — the consumer stalls once, after
    // which new_wb forwarding serves the value.
    if (new_mem.valid && new_mem.ins.op == Opcode::kLd) {
      for (unsigned r : sources)
        if (new_mem.ins.rd == r) stall = true;
    }
    if (!stall) {
      new_ex.valid = true;
      new_ex.ins = ins;
      // Operand assignment mirrors the functional CPU's field usage.
      new_ex.a = sources.empty() ? 0 : read_forwarded(ins.rs1);
      switch (ins.op) {
        case Opcode::kAdd: case Opcode::kSub: case Opcode::kMul: case Opcode::kAnd:
        case Opcode::kOr: case Opcode::kXor: case Opcode::kShl: case Opcode::kShr:
        case Opcode::kBeq: case Opcode::kBne: case Opcode::kBlt:
          new_ex.b = read_forwarded(ins.rs2);
          break;
        default:
          new_ex.b = 0;
          break;
      }
      if (ins.op == Opcode::kSt) new_ex.store_val = read_forwarded(ins.rs2);
    }
  }

  // ---- IF: fetch (unless stalled / redirected).
  IfId new_id{};
  if (!stall && !halt_seen_ && pc_ < program_.size()) {
    new_id.valid = true;
    new_id.ins = program_[pc_];
    ++pc_;
    if (new_id.ins.op == Opcode::kHalt) halt_seen_ = true;
  }

  // ---- Latch update with control hazards.
  if (redirect) {
    // EX resolved a taken branch: everything younger (ID result + fetch) is
    // wrong-path.
    new_ex = IdEx{};
    new_id = IfId{};
    pc_ = redirect_pc;
    halt_seen_ = false;  // wrong-path halt no longer in flight
    flushes_ += 2;
  } else if (stall) {
    new_id = if_id_;  // hold the stalled instruction
    ++stalls_;
  }
  mem_wb_ = new_wb;
  ex_mem_ = new_mem;
  id_ex_ = new_ex;
  if_id_ = new_id;

  // Drained with nothing left to fetch and no halt retired: fell off the end.
  if (!mem_wb_.valid && !ex_mem_.valid && !id_ex_.valid && !if_id_.valid &&
      (halt_seen_ ? false : pc_ >= program_.size()))
    state_ = RunState::kTrapped;
  return state_;
}

RunState PipelineCpu::run(std::uint64_t max_cycles) {
  while (state_ == RunState::kRunning) {
    if (cycles_ >= max_cycles) {
      state_ = RunState::kTimedOut;
      break;
    }
    step();
  }
  return state_;
}

void PipelineCpu::apply_fault(const PipelineFaultSite& site) {
  switch (site.field) {
    case LatchField::kPc:
      // Keep the PC in (or just past) the program so fetch semantics stay
      // defined; out-of-range fetch simply drains to a trap.
      pc_ ^= (1u << (site.bit % 8));
      break;
    case LatchField::kIfIdInstr:
      if (if_id_.valid) corrupt_instruction_field(if_id_.ins, site.bit);
      break;
    case LatchField::kIdExOperandA:
      if (id_ex_.valid) id_ex_.a ^= (1u << (site.bit % 32));
      break;
    case LatchField::kIdExOperandB:
      if (id_ex_.valid) id_ex_.b ^= (1u << (site.bit % 32));
      break;
    case LatchField::kExMemAlu:
      if (ex_mem_.valid) ex_mem_.alu ^= (1u << (site.bit % 32));
      break;
    case LatchField::kMemWbValue:
      if (mem_wb_.valid) mem_wb_.value ^= (1u << (site.bit % 32));
      break;
  }
}

RunState PipelineCpu::run_with_fault(std::uint64_t max_cycles,
                                     const PipelineFaultSite& site) {
  while (state_ == RunState::kRunning) {
    if (cycles_ >= max_cycles) {
      state_ = RunState::kTimedOut;
      break;
    }
    if (cycles_ == site.cycle) apply_fault(site);
    step();
  }
  return state_;
}

bool pipeline_matches_golden(const Workload& w) {
  const auto golden = run_golden(w);
  PipelineCpu cpu(w.memory_words);
  cpu.load_program(w.program);
  for (const auto& [addr, value] : w.memory_init) cpu.set_mem(addr, value);
  if (cpu.run(4 * w.max_cycles + 64) != RunState::kHalted) return false;
  for (std::size_t i = 0; i < w.output_words; ++i)
    if (cpu.mem(w.output_base + i) != golden.output[i]) return false;
  return true;
}

Outcome pipeline_inject(const Workload& w, const PipelineFaultSite& site) {
  const auto golden = run_golden(w);
  PipelineCpu cpu(w.memory_words);
  cpu.load_program(w.program);
  for (const auto& [addr, value] : w.memory_init) cpu.set_mem(addr, value);
  const auto state = cpu.run_with_fault(4 * w.max_cycles + 64, site);
  if (state == RunState::kTrapped) return Outcome::kCrash;
  if (state == RunState::kTimedOut) return Outcome::kHang;
  for (std::size_t i = 0; i < w.output_words; ++i)
    if (cpu.mem(w.output_base + i) != golden.output[i]) return Outcome::kSdc;
  return Outcome::kBenign;
}

// Batched pipeline trial hot path — the same snapshot + store-undo-log
// scheme as the functional FaultInjector (see fault.cpp): one instrumented
// clean pipeline run records periodic `PipelineCpu::Snapshot`s and the
// ordered store log; each trial restores the nearest snapshot onto a
// thread-local scratch machine, runs `run_with_fault` from there, classifies
// against the (hoisted) golden output, and unwinds the stores. The reference
// `pipeline_inject` re-runs the functional golden AND a cold pipeline per
// trial — the batched path pays both exactly once per campaign.

namespace {

/// ~1024 snapshots over the clean pipeline run plus the ordered store log.
struct PipeTrace {
  struct Snap {
    PipelineCpu::Snapshot state;
    std::size_t write_count = 0;
  };
  std::vector<Snap> snaps;
  std::vector<MemWrite> writes;
  std::uint64_t stride = 1;
};

std::atomic<std::uint64_t> g_pipe_context_serial{0};

PipeTrace build_pipeline_trace(const Workload& w, std::uint64_t budget,
                               std::uint64_t total_cycles) {
  PipeTrace trace;
  trace.stride = std::max<std::uint64_t>(1, (total_cycles + 1023) / 1024);
  PipelineCpu cpu(w.memory_words);
  cpu.load_program(w.program);
  for (const auto& [addr, value] : w.memory_init) cpu.set_mem(addr, value);
  cpu.set_write_log(&trace.writes);
  std::uint64_t next_snap = 0;
  while (cpu.state() == RunState::kRunning && cpu.cycles() <= budget) {
    if (cpu.cycles() == next_snap) {
      trace.snaps.push_back({cpu.capture(), trace.writes.size()});
      next_snap += trace.stride;
    }
    cpu.step();
  }
  cpu.set_write_log(nullptr);
  return trace;
}

struct PipeBatchContext {
  const Workload& workload;
  const GoldenRun& golden;
  std::uint64_t budget;
  PipeTrace trace;
  std::uint64_t id = ++g_pipe_context_serial;
};

/// Per-thread scratch machine holding the workload baseline between trials.
struct PipeScratch {
  std::uint64_t ctx_id = 0;
  PipelineCpu cpu{1};
  std::vector<MemWrite> undo;
};

PipeScratch& pipe_scratch_for(const PipeBatchContext& ctx) {
  thread_local PipeScratch scratch;
  if (scratch.ctx_id != ctx.id) {
    scratch.cpu = PipelineCpu(ctx.workload.memory_words);
    scratch.cpu.load_program(ctx.workload.program);
    for (const auto& [addr, value] : ctx.workload.memory_init)
      scratch.cpu.set_mem(addr, value);
    scratch.undo.clear();
    scratch.undo.reserve(256);
    scratch.ctx_id = ctx.id;
  }
  return scratch;
}

Outcome pipeline_inject_batched(const PipeBatchContext& ctx, PipeScratch& scratch,
                                const PipelineFaultSite& site) {
  PipelineCpu& cpu = scratch.cpu;
  auto& undo = scratch.undo;
  undo.clear();

  const std::size_t snap_index = std::min<std::size_t>(
      static_cast<std::size_t>(site.cycle / ctx.trace.stride), ctx.trace.snaps.size() - 1);
  const PipeTrace::Snap& snap = ctx.trace.snaps[snap_index];

  // Baseline memory -> snapshot memory via the clean-run store prefix;
  // applies are undo-logged manually, later stores through the write log.
  for (std::size_t k = 0; k < snap.write_count; ++k) {
    const MemWrite& w = ctx.trace.writes[k];
    undo.push_back({w.addr, cpu.mem(w.addr), w.after});
    cpu.set_mem(w.addr, w.after);
  }
  cpu.restore(snap.state);
  cpu.set_write_log(&undo);

  // run_with_fault applies the site at `cycles_ == site.cycle` at loop top —
  // restoring any earlier loop-top state reproduces the reference trajectory.
  const auto state = cpu.run_with_fault(ctx.budget, site);

  Outcome outcome;
  if (state == RunState::kTrapped) {
    outcome = Outcome::kCrash;
  } else if (state == RunState::kTimedOut) {
    outcome = Outcome::kHang;
  } else {
    const auto mismatches = lore::kernels::count_mismatch_u32(
        cpu.memory().subspan(ctx.workload.output_base, ctx.workload.output_words),
        std::span<const std::uint32_t>(ctx.golden.output));
    outcome = mismatches ? Outcome::kSdc : Outcome::kBenign;
  }

  cpu.set_write_log(nullptr);
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) cpu.set_mem(it->addr, it->before);
  return outcome;
}

/// Clean pipeline run: the cycle budget injection times are drawn from.
std::uint64_t pipeline_probe_cycles(const Workload& w) {
  PipelineCpu probe(w.memory_words);
  probe.load_program(w.program);
  for (const auto& [addr, value] : w.memory_init) probe.set_mem(addr, value);
  probe.run(4 * w.max_cycles + 64);
  return probe.cycles();
}

constexpr LatchField kCampaignFields[] = {
    LatchField::kPc,           LatchField::kIfIdInstr,  LatchField::kIdExOperandA,
    LatchField::kIdExOperandB, LatchField::kExMemAlu,   LatchField::kMemWbValue};

/// The campaign's site distribution — shared verbatim by the single-process
/// engine and the fabric shard entry point, so both draw the identical site
/// from a trial's stream.
PipelineFaultSite draw_pipeline_site(lore::Rng& rng, std::uint64_t total_cycles) {
  PipelineFaultSite site;
  site.field = kCampaignFields[rng.uniform_index(6)];
  site.bit = static_cast<unsigned>(rng.uniform_index(32));
  site.cycle = rng.uniform_index(total_cycles) + 1;
  return site;
}

FaultRecord make_pipeline_record(const PipelineFaultSite& site, Outcome outcome,
                                 std::uint64_t seed) {
  FaultRecord rec;
  rec.site.target = FaultTarget::kRegister;  // closest legacy category
  rec.site.index = static_cast<std::size_t>(site.field);
  rec.site.bit = site.bit;
  rec.site.cycle = site.cycle;
  rec.outcome = outcome;
  rec.trial_seed = seed;
  return rec;
}

lore::CampaignSpec pipeline_spec_with_domain(const Workload& w,
                                             const lore::CampaignSpec& spec,
                                             std::uint64_t total_cycles) {
  if (!spec.domain.empty()) return spec;
  lore::CampaignSpec s = spec;
  char buf[64];
  std::snprintf(buf, sizeof buf, "arch.pipeline/%zu-%llu", w.program.size(),
                static_cast<unsigned long long>(total_cycles));
  s.domain = buf;
  return s;
}

/// `run(body)` with the pipeline campaign's batched snapshot-restore trial
/// body, which polls the deadline at trial start. Golden output and the
/// instrumented clean-run trace are built once, outside the trial loop.
template <typename Run>
auto with_pipeline_body(const Workload& w, const lore::CampaignSpec& s,
                        std::uint64_t total_cycles, Run&& run) {
  const std::uint64_t budget = 4 * w.max_cycles + 64;
  const GoldenRun golden = run_golden(w);
  const PipeBatchContext ctx{w, golden, budget,
                             build_pipeline_trace(w, budget, total_cycles)};
  return run([&](std::size_t t, lore::Rng& rng, const lore::CancelToken& cancel) {
    cancel.throw_if_cancelled();
    const PipelineFaultSite site = draw_pipeline_site(rng, total_cycles);
    return make_pipeline_record(site,
                                pipeline_inject_batched(ctx, pipe_scratch_for(ctx), site),
                                lore::trial_seed(s.base_seed, t));
  });
}

}  // namespace

CampaignSpec pipeline_campaign_spec(const Workload& w, const CampaignSpec& spec) {
  return pipeline_spec_with_domain(w, spec, pipeline_probe_cycles(w));
}

CampaignCheckpoint pipeline_campaign_shard(const Workload& w, const CampaignSpec& spec,
                                           lore::TrialRange range) {
  LORE_OBS_SPAN(span, "campaign.pipeline_shard");
  const std::uint64_t total_cycles = pipeline_probe_cycles(w);
  const lore::CampaignSpec s = pipeline_spec_with_domain(w, spec, total_cycles);
  return with_pipeline_body(w, s, total_cycles, [&](auto&& body) {
    return lore::run_campaign_shard<FaultRecord, FaultRecordCodec>(s, range, body);
  });
}

CampaignResult<FaultRecord> pipeline_records_from_checkpoint(
    const CampaignSpec& spec, const CampaignCheckpoint& ck) {
  return lore::result_from_checkpoint<FaultRecord, FaultRecordCodec>(spec, ck);
}

CampaignResult<FaultRecord> pipeline_campaign_run(const Workload& w,
                                                  const CampaignSpec& spec) {
  LORE_OBS_SPAN(span, "campaign.pipeline");
  LORE_OBS_TIMER(timer, "campaign.pipeline_us");
  const std::uint64_t total_cycles = pipeline_probe_cycles(w);
  const lore::CampaignSpec s = pipeline_spec_with_domain(w, spec, total_cycles);
  auto result = with_pipeline_body(w, s, total_cycles, [&](auto&& body) {
    return lore::run_campaign<FaultRecord, FaultRecordCodec>(s, body);
  });
  if (result.report.complete()) {
    count_campaign_outcomes("campaign.pipeline", result.records);
  } else {
    std::vector<FaultRecord> ok;
    ok.reserve(result.report.completed);
    for (std::size_t i = 0; i < result.records.size(); ++i)
      if (result.status[i] == lore::TrialStatus::kOk) ok.push_back(result.records[i]);
    count_campaign_outcomes("campaign.pipeline", ok);
  }
  return result;
}

std::vector<FaultRecord> pipeline_campaign(const Workload& w, const CampaignSpec& spec) {
  return pipeline_campaign_run(w, spec).records;
}

std::vector<FaultRecord> pipeline_campaign(const Workload& w, std::size_t trials,
                                           std::uint64_t base_seed, unsigned threads) {
  CampaignSpec spec;
  spec.trials = trials;
  spec.base_seed = base_seed;
  spec.threads = threads;
  return pipeline_campaign(w, spec);
}

double architectural_corruption_factor(const std::vector<FaultRecord>& campaign) {
  if (campaign.empty()) return 0.0;
  std::size_t corrupting = 0;
  for (const auto& r : campaign) corrupting += r.outcome != Outcome::kBenign;
  return static_cast<double>(corrupting) / static_cast<double>(campaign.size());
}

}  // namespace lore::arch
