#include "src/arch/fault.hpp"

#include <array>
#include <atomic>
#include <cassert>
#include <cstdio>

#include "src/arch/def_use.hpp"
#include "src/arch/features.hpp"
#include "src/common/kernels.hpp"
#include "src/common/parallel.hpp"
#include "src/ml/predictor.hpp"
#include "src/obs/obs.hpp"

namespace lore::arch {

/// Campaign outcome counters under `prefix` ("masked" is the paper's name
/// for architecturally benign injections). Counts are derived from the
/// merged record list, so they inherit the engine's bit-identical-for-any-
/// thread-count guarantee.
void count_campaign_outcomes(const char* prefix, const std::vector<FaultRecord>& records) {
  if (!obs::kCompiledIn || !obs::enabled()) return;
  const OutcomeMix mix = summarize(records);
  auto& registry = obs::MetricsRegistry::global();
  const std::string base(prefix);
  registry.counter(base + ".trials").add(records.size());
  registry.counter(base + ".outcome.masked").add(mix.benign);
  registry.counter(base + ".outcome.sdc").add(mix.sdc);
  registry.counter(base + ".outcome.crash").add(mix.crash);
  registry.counter(base + ".outcome.hang").add(mix.hang);
  registry.counter(base + ".outcome.detected").add(mix.detected);
}

std::string outcome_name(Outcome o) {
  switch (o) {
    case Outcome::kBenign: return "benign";
    case Outcome::kSdc: return "sdc";
    case Outcome::kCrash: return "crash";
    case Outcome::kHang: return "hang";
    case Outcome::kDetected: return "detected";
  }
  return "?";
}

void corrupt_instruction_field(Instruction& ins, unsigned bit) {
  const unsigned b = bit % 32;
  if (b < 5) {
    ins.op = static_cast<Opcode>((static_cast<unsigned>(ins.op) ^ (1u << b)) %
                                 (static_cast<unsigned>(Opcode::kHalt) + 1));
  } else if (b < 9) {
    ins.rd = static_cast<std::uint8_t>((ins.rd ^ (1u << (b - 5))) % kNumRegisters);
  } else if (b < 13) {
    ins.rs1 = static_cast<std::uint8_t>((ins.rs1 ^ (1u << (b - 9))) % kNumRegisters);
  } else if (b < 17) {
    ins.rs2 = static_cast<std::uint8_t>((ins.rs2 ^ (1u << (b - 13))) % kNumRegisters);
  } else {
    ins.imm ^= (1 << (b - 17));
  }
}

GoldenRun run_golden(const Workload& w) {
  Cpu cpu(w.memory_words);
  cpu.load_program(w.program);
  for (const auto& [addr, value] : w.memory_init) cpu.set_mem(addr, value);
  [[maybe_unused]] const auto state = cpu.run_fast(w.max_cycles);
  assert(state == RunState::kHalted && "golden run must complete");
  GoldenRun g;
  g.cycles = cpu.cycles();
  g.output.reserve(w.output_words);
  for (std::size_t i = 0; i < w.output_words; ++i)
    g.output.push_back(cpu.mem(w.output_base + i));
  return g;
}

FaultInjector::FaultInjector(const Workload& workload)
    : workload_(workload),
      golden_(run_golden(workload)),
      data_words_(data_window_words(workload)) {}

void FaultInjector::prepare_cpu(Cpu& cpu) const {
  cpu.load_program(workload_.program);
  for (const auto& [addr, value] : workload_.memory_init) cpu.set_mem(addr, value);
}

FaultRecord FaultInjector::inject(const FaultSite& site) const {
  Cpu cpu(workload_.memory_words);
  prepare_cpu(cpu);

  FaultRecord rec;
  rec.site = site;

  // Run to the injection cycle.
  while (cpu.state() == RunState::kRunning && cpu.cycles() < site.cycle) cpu.step();
  rec.active_instruction =
      cpu.state() == RunState::kRunning ? static_cast<std::int64_t>(cpu.pc()) : -1;

  if (cpu.state() == RunState::kRunning || cpu.state() == RunState::kHalted) {
    switch (site.target) {
      case FaultTarget::kRegister:
        cpu.flip_register_bit(site.index, site.bit);
        break;
      case FaultTarget::kMemory:
        cpu.flip_memory_bit(site.index, site.bit);
        break;
      case FaultTarget::kInstruction: {
        // Corrupt one field of the static instruction's packed encoding.
        auto& prog = cpu.mutable_program();
        if (site.index < prog.size())
          corrupt_instruction_field(prog[site.index], site.bit);
        break;
      }
    }
  }

  const auto state = cpu.run(workload_.max_cycles);
  switch (state) {
    case RunState::kTrapped:
      rec.outcome = Outcome::kCrash;
      return rec;
    case RunState::kTimedOut:
      rec.outcome = Outcome::kHang;
      return rec;
    default:
      break;
  }
  for (std::size_t i = 0; i < workload_.output_words; ++i) {
    if (cpu.mem(workload_.output_base + i) != golden_.output[i]) {
      rec.outcome = Outcome::kSdc;
      return rec;
    }
  }
  rec.outcome = Outcome::kBenign;
  return rec;
}

FaultSite FaultInjector::random_site(lore::Rng& rng, FaultTarget target) const {
  FaultSite site;
  site.target = target;
  site.cycle = rng.uniform_index(golden_.cycles) + 1;
  switch (target) {
    case FaultTarget::kRegister:
      site.index = rng.uniform_index(kNumRegisters);
      site.bit = static_cast<unsigned>(rng.uniform_index(32));
      break;
    case FaultTarget::kMemory:
      site.index = rng.uniform_index(data_words_);
      site.bit = static_cast<unsigned>(rng.uniform_index(32));
      break;
    case FaultTarget::kInstruction:
      site.index = rng.uniform_index(workload_.program.size());
      site.bit = static_cast<unsigned>(rng.uniform_index(32));
      break;
  }
  return site;
}

namespace {

/// Workload fingerprint folded into the campaign identity: golden output,
/// cycle count, program size, and the fault target. Distinguishes any two
/// campaigns whose records could differ.
std::string fault_campaign_domain(const char* kind, const GoldenRun& golden,
                                  std::size_t program_size, int target) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  mix(golden.cycles);
  for (const auto word : golden.output) mix(word);
  mix(program_size);
  mix(static_cast<std::uint64_t>(target));
  char buf[64];
  std::snprintf(buf, sizeof buf, "%s/%016llx", kind,
                static_cast<unsigned long long>(h));
  return buf;
}

/// Outcome counters must only cover trials that produced a record; failed or
/// skipped slots hold value-initialized records and would masquerade as
/// benign injections.
void count_completed_outcomes(const char* prefix,
                              const lore::CampaignResult<FaultRecord>& result) {
  if (result.report.complete()) {
    count_campaign_outcomes(prefix, result.records);
    return;
  }
  std::vector<FaultRecord> ok;
  ok.reserve(result.report.completed);
  for (std::size_t i = 0; i < result.records.size(); ++i)
    if (result.status[i] == lore::TrialStatus::kOk) ok.push_back(result.records[i]);
  count_campaign_outcomes(prefix, ok);
}

}  // namespace

// ---------------------------------------------------------------------------
// Batched trial hot path. The reference `inject()` constructs and golden-
// replays a fresh Cpu per trial: five vector allocations, a 16 KiB memory
// zero, and up to `site.cycle` interpreted cycles before the fault even
// lands. The batched path pays the golden work once per campaign — an
// instrumented golden replay records periodic architectural snapshots plus
// the full ordered store log — and then each trial on a thread-local scratch
// Cpu is: apply the golden store prefix up to the nearest snapshot (logging
// undos), restore registers/PC from the snapshot, interpret at most
// `stride` cycles to the injection point, flip, run to completion with the
// profiling-free interpreter, classify, and unwind the store log so scratch
// memory is back at the workload baseline. Trajectories are bit-identical to
// the reference by construction: pre-injection state is the golden
// trajectory either way, and injection/classification code is shared.
// A flip the golden run never reads again is decided without simulating the
// rest of the program: the same replay records a def-use index, and
// `dead_site` applies the exact rule of DESIGN.md §11 ("Dead sites").
// The differential suite in tests/common/ holds this equal to `inject()`
// across dispatch modes, chunk sizes, and thread counts.

/// Architectural state at one golden cycle boundary. `write_count` indexes
/// into GoldenTrace::writes: applying writes [0, write_count) to the baseline
/// memory image reproduces golden memory at `cycles`.
struct FaultInjector::TraceSnap {
  std::uint64_t cycles = 0;
  std::uint32_t pc = 0;
  RunState state = RunState::kRunning;
  std::size_t write_count = 0;
  std::array<std::uint32_t, kNumRegisters> regs{};
};

/// One instrumented golden replay: snapshots every `stride` cycles (at most
/// ~1024 of them), the ordered log of every retired store, and the def-use
/// index of every register, data word and instruction.
struct FaultInjector::GoldenTrace {
  std::vector<TraceSnap> snaps;
  std::vector<MemWrite> writes;
  std::uint64_t stride = 1;
  DefUseIndex def_use;
};

namespace {

/// Campaign-scoped identity for the thread-local scratch state. ThreadPool
/// workers are fresh per campaign, but the serial path runs on the caller's
/// thread which persists across campaigns — the id forces a rebuild whenever
/// the scratch meets a different campaign context.
std::atomic<std::uint64_t> g_batch_context_serial{0};

}  // namespace

struct FaultInjector::BatchContext {
  const Workload& workload;
  const GoldenRun& golden;
  GoldenTrace trace;
  /// `arch.fault.dead_site_trials`, resolved once per campaign (nullptr
  /// while observability is off).
  obs::Counter* dead_sites = nullptr;
  std::uint64_t id = ++g_batch_context_serial;
};

/// Per-thread scratch: one live Cpu holding the workload baseline between
/// trials, the undo log that maintains that invariant, and the dead-site
/// trials not yet added to the counter.
struct FaultInjector::BatchScratch {
  std::uint64_t ctx_id = 0;
  Cpu cpu{1};
  std::vector<MemWrite> undo;
  std::uint64_t dead = 0;
};

/// The campaign trial body. The chunk engine calls `chunk_done` after each
/// chunk on the thread that ran it, so the counter takes one add per chunk.
struct FaultInjector::TrialBody {
  const FaultInjector& injector;
  const BatchContext& ctx;
  FaultTarget target;
  std::uint64_t base_seed;

  FaultRecord operator()(std::size_t t, lore::Rng& rng, const lore::CancelToken& cancel) const {
    cancel.throw_if_cancelled();
    FaultRecord rec =
        injector.inject_batched(ctx, scratch_for(ctx), injector.random_site(rng, target));
    rec.trial_seed = lore::trial_seed(base_seed, t);
    return rec;
  }

  void chunk_done() const {
    BatchScratch& scratch = scratch_for(ctx);
    if (ctx.dead_sites && scratch.dead) ctx.dead_sites->add(scratch.dead);
    scratch.dead = 0;
  }
};

FaultInjector::GoldenTrace FaultInjector::build_golden_trace() const {
  GoldenTrace trace;
  // <= ~1024 snapshots regardless of workload length; pre-injection replay
  // from the nearest snapshot is then at most `stride` cycles.
  trace.stride = std::max<std::uint64_t>(1, (golden_.cycles + 1023) / 1024);
  trace.def_use = DefUseIndex(workload_.program, data_words_);
  Cpu cpu(workload_.memory_words);
  prepare_cpu(cpu);
  cpu.set_write_log(&trace.writes);
  std::uint64_t next_snap = 0;
  while (cpu.state() == RunState::kRunning && cpu.cycles() <= workload_.max_cycles) {
    if (cpu.cycles() == next_snap) {
      TraceSnap snap;
      snap.cycles = cpu.cycles();
      snap.pc = cpu.pc();
      snap.state = cpu.state();
      snap.write_count = trace.writes.size();
      for (std::size_t r = 0; r < kNumRegisters; ++r)
        snap.regs[r] = cpu.reg(r);
      trace.snaps.push_back(snap);
      next_snap += trace.stride;
    }
    trace.def_use.record(cpu);
    cpu.step_fast();
  }
  cpu.set_write_log(nullptr);
  trace.def_use.seal();
  return trace;
}

FaultInjector::BatchScratch& FaultInjector::scratch_for(const BatchContext& ctx) {
  thread_local BatchScratch scratch;
  if (scratch.ctx_id != ctx.id) {
    scratch.cpu = Cpu(ctx.workload.memory_words);
    scratch.cpu.load_program(ctx.workload.program);
    for (const auto& [addr, value] : ctx.workload.memory_init)
      scratch.cpu.set_mem(addr, value);
    scratch.undo.clear();
    scratch.undo.reserve(256);
    scratch.dead = 0;
    scratch.ctx_id = ctx.id;
  }
  return scratch;
}

namespace {

/// True when flipping `site` at its cycle leaves the run equal to the golden
/// run: the golden run next writes the location without reading it, or never
/// touches it again. A never-touched output word is the exception — it ends
/// up different from golden (DESIGN.md §11, "Dead sites").
bool dead_site(const DefUseIndex& du, const Workload& w, const FaultSite& site) {
  using Next = DefUseIndex::Next;
  switch (site.target) {
    case FaultTarget::kRegister:
      return du.next_register_access(site.index, site.cycle) != Next::kRead;
    case FaultTarget::kMemory: {
      if (site.index >= du.data_words()) return false;
      const Next next = du.next_memory_access(site.index, site.cycle);
      const bool output =
          site.index >= w.output_base && site.index < w.output_base + w.output_words;
      return next == Next::kWrite || (next == Next::kNone && !output);
    }
    case FaultTarget::kInstruction:
      return !du.fetched_from(site.index, site.cycle);
  }
  return false;
}

}  // namespace

FaultRecord FaultInjector::inject_batched(const BatchContext& ctx, BatchScratch& scratch,
                                          const FaultSite& site) const {
  FaultRecord rec;
  rec.site = site;
  Cpu& cpu = scratch.cpu;
  auto& undo = scratch.undo;
  undo.clear();

  // Nearest snapshot at or before the injection cycle (clamped: the golden
  // run may halt before the last stride boundary).
  const std::size_t snap_index = std::min<std::size_t>(
      static_cast<std::size_t>(site.cycle / ctx.trace.stride), ctx.trace.snaps.size() - 1);
  const TraceSnap& snap = ctx.trace.snaps[snap_index];

  // Scratch memory holds the baseline image; the golden store prefix brings
  // it to the snapshot cycle. Applies are undo-logged manually (`set_mem` is
  // the restore primitive and never logs); every later mutation — replayed
  // stores, post-injection stores, injected memory flips — logs through the
  // Cpu's write log.
  for (std::size_t k = 0; k < snap.write_count; ++k) {
    const MemWrite& w = ctx.trace.writes[k];
    undo.push_back({w.addr, cpu.mem(w.addr), w.after});
    cpu.set_mem(w.addr, w.after);
  }
  cpu.restore_registers(snap.regs);
  cpu.set_pc(snap.pc);
  cpu.set_cycles(snap.cycles);
  cpu.set_state(snap.state);
  cpu.set_write_log(&undo);

  // Run to the injection cycle — the same loop (and so the same reachable
  // states) as the reference inject().
  while (cpu.state() == RunState::kRunning && cpu.cycles() < site.cycle) cpu.step_fast();
  rec.active_instruction =
      cpu.state() == RunState::kRunning ? static_cast<std::int64_t>(cpu.pc()) : -1;

  if (dead_site(ctx.trace.def_use, workload_, site)) {
    // The faulty run is the golden run: benign, nothing to simulate.
    ++scratch.dead;
    rec.outcome = Outcome::kBenign;
    cpu.set_write_log(nullptr);
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) cpu.set_mem(it->addr, it->before);
    return rec;
  }

  Instruction saved_instruction{};
  bool program_touched = false;
  if (cpu.state() == RunState::kRunning || cpu.state() == RunState::kHalted) {
    switch (site.target) {
      case FaultTarget::kRegister:
        cpu.flip_register_bit(site.index, site.bit);
        break;
      case FaultTarget::kMemory:
        cpu.flip_memory_bit(site.index, site.bit);
        break;
      case FaultTarget::kInstruction: {
        auto& prog = cpu.mutable_program();
        if (site.index < prog.size()) {
          saved_instruction = prog[site.index];
          corrupt_instruction_field(prog[site.index], site.bit);
          program_touched = true;
        }
        break;
      }
    }
  }

  const auto state = cpu.run_fast(workload_.max_cycles);
  switch (state) {
    case RunState::kTrapped:
      rec.outcome = Outcome::kCrash;
      break;
    case RunState::kTimedOut:
      rec.outcome = Outcome::kHang;
      break;
    default: {
      const auto mismatches = lore::kernels::count_mismatch_u32(
          cpu.memory().subspan(workload_.output_base, workload_.output_words),
          std::span<const std::uint32_t>(golden_.output));
      rec.outcome = mismatches ? Outcome::kSdc : Outcome::kBenign;
      break;
    }
  }

  // Teardown: pristine program, baseline memory (regs/PC/cycles/state are
  // overwritten from a snapshot at the next trial's start).
  if (program_touched) cpu.mutable_program()[site.index] = saved_instruction;
  cpu.set_write_log(nullptr);
  for (auto it = undo.rbegin(); it != undo.rend(); ++it) cpu.set_mem(it->addr, it->before);
  return rec;
}

lore::CampaignSpec FaultInjector::resolved_spec(const lore::CampaignSpec& spec,
                                                FaultTarget target) const {
  lore::CampaignSpec s = spec;
  if (s.domain.empty())
    s.domain = fault_campaign_domain("arch.fault", golden_, workload_.program.size(),
                                     static_cast<int>(target));
  return s;
}

template <typename Run>
auto FaultInjector::with_trial_body(const lore::CampaignSpec& s, FaultTarget target,
                                    Run&& run) const {
  BatchContext ctx{workload_, golden_, build_golden_trace()};
  if (obs::kCompiledIn && obs::enabled())
    ctx.dead_sites = &obs::MetricsRegistry::global().counter("arch.fault.dead_site_trials");
  TrialBody body{*this, ctx, target, s.base_seed};
  return run(body);
}

lore::CampaignCheckpoint FaultInjector::campaign_shard(const lore::CampaignSpec& spec,
                                                       lore::TrialRange range,
                                                       FaultTarget target) const {
  LORE_OBS_SPAN(span, "campaign.arch_shard");
  const lore::CampaignSpec s = resolved_spec(spec, target);
  return with_trial_body(s, target, [&](auto&& body) {
    return lore::run_campaign_shard<FaultRecord, FaultRecordCodec>(s, range, body);
  });
}

lore::CampaignResult<FaultRecord> FaultInjector::records_from_checkpoint(
    const lore::CampaignSpec& spec, const lore::CampaignCheckpoint& ck) {
  return lore::result_from_checkpoint<FaultRecord, FaultRecordCodec>(spec, ck);
}

lore::CampaignResult<FaultRecord> FaultInjector::campaign_run(
    const lore::CampaignSpec& spec, FaultTarget target) const {
  LORE_OBS_SPAN(span, "campaign.arch");
  LORE_OBS_TIMER(timer, "campaign.arch_us");
  const lore::CampaignSpec s = resolved_spec(spec, target);
  auto result = with_trial_body(s, target, [&](auto&& body) {
    return lore::run_campaign<FaultRecord, FaultRecordCodec>(s, body);
  });
  count_completed_outcomes("campaign.arch", result);
  return result;
}

lore::CampaignResult<FaultRecord> FaultInjector::campaign_run_pruned(
    const lore::CampaignSpec& spec, FaultTarget target, ml::Predictor& predictor,
    const PruneCampaignOptions& opt) const {
  const lore::CampaignSpec s = resolved_spec(spec, target);
  // Pruning is for plain specs only; keep a resilient run's exact semantics.
  if (!lore::plain_campaign_spec(s)) return campaign_run(spec, target);

  LORE_OBS_SPAN(span, "campaign.arch_pruned");
  LORE_OBS_TIMER(timer, "campaign.arch_us");
  const FaultSiteFeaturizer featurizer(workload_, golden_.cycles);
  const double threshold = opt.benign_threshold >= 0.0
                               ? opt.benign_threshold
                               : predictor.config().benign_threshold;

  lore::PruneHooks<FaultRecord> hooks;
  hooks.audit_fraction = opt.audit_fraction;
  hooks.controller = opt.controller;
  hooks.predict = [&](std::size_t begin, std::size_t end,
                      std::span<const std::uint64_t> seeds,
                      std::span<std::uint8_t> benign) {
    (void)begin;
    (void)end;
    const auto snap = predictor.snapshot();
    if (!snap) return;  // no validated model yet — nothing is predicted benign
    const std::size_t n = seeds.size();
    // The engine holds an ArenaScope for the chunk; these live until chunk end.
    Arena& arena = Arena::for_thread();
    const auto features = arena.alloc<double>(n * kFaultSiteFeatureDim);
    const auto p_benign = arena.alloc<double>(n);
    for (std::size_t i = 0; i < n; ++i) {
      // Regenerate trial i's site from its seed: the first draws of the same
      // stream the trial body would consume, so prediction and execution see
      // the same descriptor.
      lore::Rng rng(seeds[i]);
      const FaultSite site = random_site(rng, target);
      featurizer.featurize(
          site, features.subspan(i * kFaultSiteFeatureDim, kFaultSiteFeatureDim));
    }
    snap->predict_benign(features.data(), n, p_benign, /*threads=*/1);
    for (std::size_t i = 0; i < n; ++i) benign[i] = p_benign[i] >= threshold ? 1 : 0;
  };
  hooks.is_benign = [](const FaultRecord& r) { return r.outcome == Outcome::kBenign; };
  hooks.on_executed = [&](std::size_t index, const FaultRecord& rec, bool predicted,
                          bool audited) {
    (void)predicted;
    if (!audited && (opt.feedback_stride == 0 || index % opt.feedback_stride != 0))
      return;
    double f[kFaultSiteFeatureDim];
    featurizer.featurize(rec.site, f);
    predictor.observe(std::span<const double>(f, kFaultSiteFeatureDim),
                      rec.outcome == Outcome::kBenign);
  };

  auto result = with_trial_body(s, target, [&](auto&& body) {
    return lore::run_campaign_pruned<FaultRecord, FaultRecordCodec>(s, body, hooks);
  });
  count_completed_outcomes("campaign.arch", result);
  return result;
}

std::vector<FaultRecord> FaultInjector::campaign(const lore::CampaignSpec& spec,
                                                 FaultTarget target) const {
  return campaign_run(spec, target).records;
}

std::vector<FaultRecord> FaultInjector::campaign(std::size_t trials, FaultTarget target,
                                                 std::uint64_t base_seed,
                                                 unsigned threads) const {
  lore::CampaignSpec spec;
  spec.trials = trials;
  spec.base_seed = base_seed;
  spec.threads = threads;
  return campaign(spec, target);
}

FaultRecord FaultInjector::replay_trial(std::uint64_t seed, FaultTarget target) const {
  lore::Rng rng(seed);
  FaultRecord rec = inject(random_site(rng, target));
  rec.trial_seed = seed;
  return rec;
}

double avf(const std::vector<FaultRecord>& records) {
  if (records.empty()) return 0.0;
  std::size_t failures = 0;
  for (const auto& r : records)
    failures += r.outcome == Outcome::kSdc || r.outcome == Outcome::kCrash ||
                r.outcome == Outcome::kHang;
  return static_cast<double>(failures) / static_cast<double>(records.size());
}

double OutcomeMix::fraction_sdc() const {
  const auto t = total();
  return t ? static_cast<double>(sdc) / static_cast<double>(t) : 0.0;
}

double OutcomeMix::fraction_failure() const {
  const auto t = total();
  return t ? static_cast<double>(sdc + crash + hang) / static_cast<double>(t) : 0.0;
}

OutcomeMix summarize(const std::vector<FaultRecord>& records) {
  OutcomeMix mix;
  for (const auto& r : records) {
    switch (r.outcome) {
      case Outcome::kBenign: ++mix.benign; break;
      case Outcome::kSdc: ++mix.sdc; break;
      case Outcome::kCrash: ++mix.crash; break;
      case Outcome::kHang: ++mix.hang; break;
      case Outcome::kDetected: ++mix.detected; break;
    }
  }
  return mix;
}

}  // namespace lore::arch
