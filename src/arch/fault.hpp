// Fault injection and outcome classification (Sec. III). A campaign runs a
// workload once to obtain the golden result, then re-runs it many times, each
// time flipping one bit of architectural state (register file, memory, or an
// instruction encoding) at a random cycle, and classifies the outcome as
// benign / SDC / crash / hang — the four categories of [24].
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/arch/cpu.hpp"
#include "src/arch/workloads.hpp"
#include "src/common/campaign.hpp"
#include "src/common/rng.hpp"

namespace lore::ml {
class Predictor;
}  // namespace lore::ml

namespace lore::arch {

enum class FaultTarget : std::uint8_t { kRegister, kMemory, kInstruction };

struct FaultSite {
  FaultTarget target = FaultTarget::kRegister;
  std::size_t index = 0;   // register id / memory word / instruction index
  unsigned bit = 0;        // bit position (register & memory: 0-31)
  std::uint64_t cycle = 0; // injection time

  friend bool operator==(const FaultSite&, const FaultSite&) = default;
};

enum class Outcome : std::uint8_t { kBenign, kSdc, kCrash, kHang, kDetected };

std::string outcome_name(Outcome o);

/// Corrupt one bit of a packed instruction encoding
/// (op:5 | rd:4 | rs1:4 | rs2:4 | imm:15), keeping fields in range. Shared by
/// the functional and pipeline fault injectors.
void corrupt_instruction_field(Instruction& ins, unsigned bit);

struct FaultRecord {
  FaultSite site;
  Outcome outcome = Outcome::kBenign;
  /// Static instruction executing at injection time (for per-instruction
  /// attribution; -1 if the program already finished).
  std::int64_t active_instruction = -1;
  /// Per-trial RNG seed the site was drawn from (0 for hand-built sites).
  /// `FaultInjector::replay_trial(seed, target)` regenerates this exact
  /// trial in isolation — see DESIGN.md, "Replaying a single campaign trial".
  std::uint64_t trial_seed = 0;

  friend bool operator==(const FaultRecord&, const FaultRecord&) = default;
};

/// Field-wise checkpoint codec for FaultRecord, shared by the functional and
/// pipeline campaigns: 38 bytes, stable across struct padding and layout
/// changes (the format is what's versioned, not the struct).
struct FaultRecordCodec {
  static void encode(ByteWriter& w, const FaultRecord& r) {
    w.put_u8(static_cast<std::uint8_t>(r.site.target));
    w.put_u64(r.site.index);
    w.put_u32(r.site.bit);
    w.put_u64(r.site.cycle);
    w.put_u8(static_cast<std::uint8_t>(r.outcome));
    w.put_u64(static_cast<std::uint64_t>(r.active_instruction));
    w.put_u64(r.trial_seed);
  }
  static FaultRecord decode(ByteReader& r) {
    FaultRecord rec;
    rec.site.target = static_cast<FaultTarget>(r.get_u8());
    rec.site.index = static_cast<std::size_t>(r.get_u64());
    rec.site.bit = r.get_u32();
    rec.site.cycle = r.get_u64();
    rec.outcome = static_cast<Outcome>(r.get_u8());
    rec.active_instruction = static_cast<std::int64_t>(r.get_u64());
    rec.trial_seed = r.get_u64();
    return rec;
  }
};

struct GoldenRun {
  std::vector<std::uint32_t> output;
  std::uint64_t cycles = 0;
};

/// Run the workload cleanly and capture the reference output.
GoldenRun run_golden(const Workload& w);

/// Knobs for `FaultInjector::campaign_run_pruned`.
struct PruneCampaignOptions {
  /// Fraction of predicted-benign trials executed anyway as audits
  /// (< 0 = LORE_PRUNE_AUDIT environment variable, default 0.05;
  /// 1.0 = audit everything, outcomes bit-identical to `campaign_run`).
  double audit_fraction = -1.0;
  /// P(benign) at or above which a trial is pruned
  /// (< 0 = the predictor config's benign_threshold).
  double benign_threshold = -1.0;
  /// Feed every Nth executed non-audit trial back into the predictor as a
  /// training observation (0 = audits only). Audited trials always feed
  /// back.
  std::size_t feedback_stride = 8;
  /// Optional shared breaker: trips when the audit-measured false-benign
  /// rate crosses its alert threshold, disabling pruning for later chunks.
  PruneController* controller = nullptr;
};

class FaultInjector {
 public:
  explicit FaultInjector(const Workload& workload);

  const GoldenRun& golden() const { return golden_; }

  /// Run with a single bit flip at the given site; classify the outcome.
  /// The single-trial reference: campaigns run the batched body, which the
  /// `simd` differential suite holds equal to this.
  FaultRecord inject(const FaultSite& site) const;

  /// Random site over live state: register bits and touched memory words,
  /// uniformly in time over the golden cycle count.
  FaultSite random_site(lore::Rng& rng, FaultTarget target) const;

  /// Spec-driven campaign over the given target kind on the resilient
  /// runtime: checkpoint/resume, per-trial deadlines with retry, partial
  /// reports (see src/common/campaign.hpp). Per-trial counter-based seeding
  /// makes the records bit-identical for every thread count — and across
  /// interrupt/resume — and each record carries the seed that replays it.
  /// `spec.domain` is filled with a workload fingerprint when empty, so a
  /// checkpoint can never be resumed against a different workload.
  CampaignResult<FaultRecord> campaign_run(const CampaignSpec& spec,
                                           FaultTarget target) const;

  /// Convenience: records of `campaign_run` (the common complete-run case).
  std::vector<FaultRecord> campaign(const CampaignSpec& spec, FaultTarget target) const;

  /// `campaign_run` with the online predict-and-prune stage (DESIGN.md §13):
  /// each chunk's fault sites are regenerated from the trial seeds,
  /// featurized (FaultSiteFeaturizer), and scored against the predictor's
  /// current snapshot; predicted-benign trials are skipped as
  /// `TrialStatus::kPruned` except for the seeded audit fraction. Executed
  /// trials feed back into the predictor, so the model improves while the
  /// campaign runs. A spec with a resilience policy (not
  /// `plain_campaign_spec`) runs as `campaign_run`, pruning nothing.
  CampaignResult<FaultRecord> campaign_run_pruned(const CampaignSpec& spec,
                                                  FaultTarget target,
                                                  ml::Predictor& predictor,
                                                  const PruneCampaignOptions& opt = {}) const;

  /// Copy of `spec` with the workload-fingerprint domain filled in when
  /// empty — the exact identity `campaign_run` executes under, which the
  /// fabric coordinator validates incoming shard payloads against.
  CampaignSpec resolved_spec(const CampaignSpec& spec, FaultTarget target) const;

  /// Fabric worker entry point: run trials [range.begin, range.end) of the
  /// campaign — identical per-trial seeding and trial bodies to
  /// `campaign_run`, batched hot path included — and return them as a
  /// LORECKP1-ready checkpoint payload (DESIGN.md §12).
  CampaignCheckpoint campaign_shard(const CampaignSpec& spec, TrialRange range,
                                    FaultTarget target) const;

  /// Decode a merged fabric checkpoint (or any resume checkpoint of this
  /// campaign kind) into records, using the same wire codec `campaign_run`
  /// checkpoints with.
  static CampaignResult<FaultRecord> records_from_checkpoint(
      const CampaignSpec& spec, const CampaignCheckpoint& ck);

  /// Positional convenience over the spec entry point (no checkpointing).
  std::vector<FaultRecord> campaign(std::size_t trials, FaultTarget target,
                                    std::uint64_t base_seed, unsigned threads = 0) const;

  /// Re-run one campaign trial from its recorded `FaultRecord::trial_seed`.
  FaultRecord replay_trial(std::uint64_t seed, FaultTarget target) const;

 private:
  // Batched campaign hot path (see fault.cpp): one instrumented golden
  // replay per campaign yields periodic snapshots, an ordered store log and
  // a def-use index; each trial then restores the nearest snapshot onto a
  // thread-local scratch Cpu instead of re-running the golden prefix from
  // scratch, and skips simulating a flip the golden run never reads again.
  // Bit-identical to `inject()` — enforced by the `simd`-labelled
  // differential tests.
  struct TraceSnap;
  struct GoldenTrace;
  struct BatchContext;
  struct BatchScratch;
  struct TrialBody;
  GoldenTrace build_golden_trace() const;
  static BatchScratch& scratch_for(const BatchContext& ctx);
  FaultRecord inject_batched(const BatchContext& ctx, BatchScratch& scratch,
                             const FaultSite& site) const;

  void prepare_cpu(Cpu& cpu) const;

  /// `run(body)` with the campaign's batched snapshot-restore trial body.
  template <typename Run>
  auto with_trial_body(const CampaignSpec& s, FaultTarget target, Run&& run) const;

  const Workload& workload_;
  GoldenRun golden_;
  std::size_t data_words_;  // data_window_words(workload_)
};

/// Architectural vulnerability factor: fraction of injections whose outcome
/// is a failure (SDC, crash, or hang).
double avf(const std::vector<FaultRecord>& records);

/// Per-structure outcome mix.
struct OutcomeMix {
  std::size_t benign = 0, sdc = 0, crash = 0, hang = 0, detected = 0;
  std::size_t total() const { return benign + sdc + crash + hang + detected; }
  double fraction_sdc() const;
  double fraction_failure() const;
};

OutcomeMix summarize(const std::vector<FaultRecord>& records);

/// Report a finished campaign's outcome mix to the global metrics registry
/// as counters `<prefix>.trials` and `<prefix>.outcome.{masked,sdc,crash,
/// hang,detected}`. No-op when observability is disabled.
void count_campaign_outcomes(const char* prefix, const std::vector<FaultRecord>& records);

}  // namespace lore::arch
