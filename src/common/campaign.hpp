// Resilient campaign runtime — the one API every long-running statistical
// campaign in LORE shares (Sec. III fault-injection/AVF sweeps, the Fig. 5
// rollback Monte Carlo, circuit stuck-at and cell-characterization grids).
//
// A `CampaignSpec` names a campaign's identity (trial count, base seed, a
// domain fingerprint) and its resilience policy (threads, per-trial deadline,
// overall budget, retry/backoff, checkpoint path and interval). Every entry
// point — `run_campaign`, `run_campaign_pruned` and the fabric's
// `run_campaign_shard` — runs on ONE chunk engine: trials are
// claimed in chunks by `parallel_for_chunks` with bulk-filled seeds, each
// attempt gets a fresh `Rng(trial_seed(base_seed, i))`, a `CancelToken` armed
// only when a deadline is set, and a budget check at trial start; failed or
// timed-out trials retry with backoff, then degrade into the
// `CampaignReport` instead of aborting the run.
//
// Checkpoint/resume: the file is a sequence of CRC-guarded LORECKP1 frames.
// An invocation merges the frames it loads, rewrites them as one frame (tmp +
// rename), runs only the missing trial indices, and appends one frame per
// finished chunk. A crash mid-append leaves a torn tail frame, which the next
// load drops with a warning. Since trial i's stream depends only on
// (base_seed, i), a resumed campaign is bit-identical to an uninterrupted one
// at any thread count.
//
// Call-site convention (DESIGN.md §9): each domain exposes
// `<name>_run(..., const CampaignSpec&, <Options>)` returning records plus the
// `CampaignReport`, and a thin `<name>(...)` returning just the payload.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <functional>
#include <mutex>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

#include "src/common/arena.hpp"
#include "src/common/kernels.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/obs/obs.hpp"

namespace lore {

/// Final disposition of one trial in a campaign.
enum class TrialStatus : std::uint8_t {
  kOk,       // completed (possibly after retries), record present
  kTimeout,  // every attempt exceeded the per-trial deadline
  kFailed,   // every attempt threw a non-timeout exception
  kSkipped,  // never attempted (overall budget exhausted / per-run trial cap)
  kPruned,   // skipped as predicted-benign by the prune stage (DESIGN.md §13)
};

const char* trial_status_name(TrialStatus s);

/// Thrown by trial bodies (via CancelToken::throw_if_cancelled) when their
/// deadline has passed; the engine converts it into a timeout + retry rather
/// than a campaign failure.
struct TrialTimeout : std::runtime_error {
  TrialTimeout() : std::runtime_error("trial deadline exceeded") {}
};

/// Cooperative cancellation handle passed to every trial attempt. Bodies poll
/// `cancelled()` (or call `throw_if_cancelled()`) at natural phase boundaries
/// — per gate, per grid row, per scheduler — and must signal cancellation by
/// throwing (normal return always counts as success). A default-constructed
/// token never cancels.
class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  CancelToken() = default;

  static CancelToken with_deadline(Clock::time_point deadline) {
    CancelToken t;
    t.has_deadline_ = true;
    t.deadline_ = deadline;
    return t;
  }

  bool cancelled() const { return has_deadline_ && Clock::now() >= deadline_; }

  void throw_if_cancelled() const {
    if (cancelled()) throw TrialTimeout();
  }

 private:
  bool has_deadline_ = false;
  Clock::time_point deadline_{};
};

/// Everything that defines a campaign. The *identity* fields (trials,
/// base_seed, domain) determine the records and are hashed into checkpoints;
/// the *policy* fields (threads, deadlines, budget, checkpointing, retries)
/// only shape execution, so a checkpoint taken under one policy resumes
/// cleanly under another — e.g. interrupt at 4 threads, resume at 32.
struct CampaignSpec {
  // -- identity --------------------------------------------------------------
  std::size_t trials = 0;
  std::uint64_t base_seed = 0;
  /// Campaign-kind + payload fingerprint (set by the domain entry point, e.g.
  /// "arch.fault/9f3a..."); folded into the checkpoint identity hash so a
  /// checkpoint can never be replayed against a different workload.
  std::string domain{};

  // -- policy ----------------------------------------------------------------
  /// Worker threads (0 = hardware_concurrency, 1 = serial).
  unsigned threads = 0;
  /// Per-trial deadline; 0 = none. Timed-out trials retry, then degrade.
  std::chrono::milliseconds trial_deadline{0};
  /// Wall-clock budget for this invocation; 0 = none. Trials not started
  /// before it expires are left kSkipped (and picked up by a resume).
  std::chrono::milliseconds overall_budget{0};
  /// Extra attempts after a timeout or trial exception.
  unsigned max_retries = 2;
  /// Backoff before retry k is `retry_backoff << k`.
  std::chrono::milliseconds retry_backoff{1};
  /// Checkpoint file; empty = checkpointing off.
  std::string checkpoint_path{};
  /// Most trials per appended checkpoint frame (caps the chunk size while
  /// checkpointing).
  std::size_t checkpoint_every = 64;
  /// Cap on trials attempted by this invocation (0 = unlimited) — lets an
  /// operator run a huge campaign in bounded slices, one resume per slice.
  std::size_t max_trials_per_run = 0;

  /// FNV-1a over the identity fields only.
  std::uint64_t identity_hash() const;
};

/// Aggregate outcome of one `run_campaign` invocation.
struct CampaignReport {
  std::size_t trials = 0;
  std::size_t completed = 0;  // includes trials restored from a checkpoint
  std::size_t resumed = 0;    // subset of completed restored from a checkpoint
  std::size_t timeouts = 0;   // trials whose final status is kTimeout
  std::size_t failed = 0;     // trials whose final status is kFailed
  std::size_t skipped = 0;    // never attempted (budget / per-run cap)
  std::size_t pruned = 0;            // skipped as predicted-benign
  std::size_t prune_audits = 0;      // predicted-benign trials executed anyway
  std::size_t prune_false_benign = 0;  // audits whose true outcome was not benign
  bool prune_disabled = false;  // the controller tripped during this run
  std::size_t retries = 0;         // attempts beyond the first, all trials
  std::size_t timeout_attempts = 0;     // individual attempts that timed out
  std::size_t suppressed_exceptions = 0;  // attempts that threw (non-timeout)
  std::size_t checkpoints_written = 0;  // frames written (first frame + appends)
  bool loaded_checkpoint = false;
  std::string first_error;  // message of the first suppressed trial exception

  bool complete() const { return completed == trials; }
};

/// Records + per-trial status + report. `records[i]` is value-initialized
/// whenever `status[i] != kOk`.
template <typename Record>
struct CampaignResult {
  std::vector<Record> records;
  std::vector<TrialStatus> status;
  CampaignReport report;
};

/// Thrown by ByteReader on truncated/corrupt payload bytes.
struct CheckpointError : std::runtime_error {
  explicit CheckpointError(const std::string& what) : std::runtime_error(what) {}
};

/// Little-endian byte serialization for checkpoint payloads. Every field is
/// written whole after one capacity check; the buffer grows by doubling.
class ByteWriter {
 public:
  ByteWriter() = default;
  /// Continue after `bytes`.
  explicit ByteWriter(std::string bytes) : buf_(std::move(bytes)), size_(buf_.size()) {}

  /// Make room for `n` bytes in all without regrowing.
  void reserve(std::size_t n) {
    if (n > buf_.size()) buf_.resize(n);
  }
  void put_u8(std::uint8_t v) { *grow(1) = static_cast<char>(v); }
  void put_u32(std::uint32_t v) { put_le<4>(v); }
  void put_u64(std::uint64_t v) { put_le<8>(v); }
  void put_f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    put_u64(bits);
  }
  void put_bytes(const void* data, std::size_t n) {
    if (n > 0) std::memcpy(grow(n), data, n);
  }
  void put_str(std::string_view s) {
    put_u32(static_cast<std::uint32_t>(s.size()));
    put_bytes(s.data(), s.size());
  }
  std::size_t size() const { return size_; }
  std::string_view view() const { return {buf_.data(), size_}; }
  std::string take() && {
    buf_.resize(size_);
    size_ = 0;
    return std::move(buf_);
  }

 private:
  char* grow(std::size_t n) {
    if (buf_.size() - size_ < n) regrow(n);
    char* p = buf_.data() + size_;
    size_ += n;
    return p;
  }
  void regrow(std::size_t n);  // out of line, so grow() inlines
  // Unrolled so the compiler can merge the bytes into one store (GCC -O2
  // keeps the loop otherwise).
  template <std::size_t N>
  void put_le(std::uint64_t v) {
    char* p = grow(N);
#pragma GCC unroll 8
    for (std::size_t i = 0; i < N; ++i) p[i] = static_cast<char>(v >> (8 * i));
  }
  std::string buf_;  // bytes [size_, buf_.size()) are spare room
  std::size_t size_ = 0;
};

/// Reads what ByteWriter wrote; every field costs one bounds check, and a
/// short read throws CheckpointError.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  std::uint8_t get_u8() { return static_cast<std::uint8_t>(*take(1)); }
  std::uint32_t get_u32() { return static_cast<std::uint32_t>(get_le<4>()); }
  std::uint64_t get_u64() { return get_le<8>(); }
  double get_f64() {
    const std::uint64_t bits = get_u64();
    double v;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  void get_bytes(void* out, std::size_t n) {
    const char* p = take(n);
    if (n > 0) std::memcpy(out, p, n);
  }
  /// The next `n` bytes, in place.
  std::string_view get_view(std::size_t n) { return {take(n), n}; }
  std::string get_str() { return std::string(get_view(get_u32())); }
  std::size_t remaining() const { return data_.size() - pos_; }
  void skip(std::size_t n) { take(n); }

 private:
  [[noreturn]] static void truncated();
  const char* take(std::size_t n) {
    if (data_.size() - pos_ < n) truncated();
    const char* p = data_.data() + pos_;
    pos_ += n;
    return p;
  }
  // Unrolled so the compiler can merge the bytes into one load.
  template <std::size_t N>
  std::uint64_t get_le() {
    const auto* p = reinterpret_cast<const unsigned char*>(take(N));
    std::uint64_t v = 0;
#pragma GCC unroll 8
    for (std::size_t i = 0; i < N; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
    return v;
  }
  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Default codec for trivially-copyable records. Domain records with pointers
/// or containers define their own codec struct with the same two members.
template <typename Record>
struct PodCodec {
  static_assert(std::is_trivially_copyable_v<Record>,
                "PodCodec needs a trivially copyable Record; write a custom codec");
  static void encode(ByteWriter& w, const Record& r) { w.put_bytes(&r, sizeof r); }
  static Record decode(ByteReader& r) {
    Record rec{};
    r.get_bytes(&rec, sizeof rec);
    return rec;
  }
};

// ---------------------------------------------------------------------------
// Checkpoint persistence (exposed so tests and tooling can craft/inspect
// files; campaigns only ever touch it through run_campaign).

/// One trial's record in a checkpoint. The payload bytes live in the owning
/// CampaignCheckpoint's buffer: read them with `CampaignCheckpoint::payload`.
struct CheckpointEntry {
  std::uint64_t trial = 0;
  std::size_t offset = 0;  // first payload byte in CampaignCheckpoint::payloads
  std::uint32_t size = 0;  // payload length in bytes
};

/// A set of encoded trial records. All payloads share one contiguous buffer,
/// so building, decoding and merging a checkpoint allocates per checkpoint,
/// never per trial (DESIGN.md §9).
struct CampaignCheckpoint {
  std::uint64_t identity = 0;  // CampaignSpec::identity_hash() of the producer
  std::string build_tag;       // git-describe of the producing binary
  std::uint64_t trials = 0;
  std::vector<CheckpointEntry> entries;
  ByteWriter payloads;  // every entry's payload, located by offset and size

  std::string_view payload(const CheckpointEntry& e) const {
    return payloads.view().substr(e.offset, e.size);
  }
  void add(std::uint64_t trial, std::string_view bytes) {
    entries.push_back({trial, payloads.size(), static_cast<std::uint32_t>(bytes.size())});
    payloads.put_bytes(bytes.data(), bytes.size());
  }
  /// Encode `record` through `Codec` straight into the buffer.
  template <typename Codec, typename Record>
  void add_record(std::uint64_t trial, const Record& record) {
    const std::size_t at = payloads.size();
    Codec::encode(payloads, record);
    entries.push_back({trial, at, static_cast<std::uint32_t>(payloads.size() - at)});
  }
};

/// git-describe tag baked into this binary (LORE_BUILD_TAG; "unknown" when
/// built outside git). Checkpoints from a different build are not trusted.
std::string checkpoint_build_tag();

/// Serialize to one LORECKP1 frame (magic, version, identity, build tag,
/// trial count, entries, trailing CRC-32) — the unit a checkpoint file is a
/// sequence of, reused by the campaign fabric as the shard hand-off payload
/// (DESIGN.md §12).
std::string encode_checkpoint(const CampaignCheckpoint& ck);

/// Parse + validate one LORECKP1 frame against `spec`: magic, version, CRC,
/// identity hash, trial count, build tag, entry count and ranges. Any problem
/// warns on stderr — naming `source` (a file path or "shard 3 from worker-1")
/// and, for identity/build-tag mismatches, both the expected and found values
/// so a mis-routed payload is diagnosable — and returns nullopt. The entry
/// count is checked against the bytes left before anything is reserved.
/// The checkpoint keeps `bytes` as its payload buffer: entries index into
/// the frame, and no payload is copied.
std::optional<CampaignCheckpoint> decode_checkpoint(std::string bytes,
                                                    const CampaignSpec& spec,
                                                    std::string_view source);

/// Replace `path` with `ck` as a single frame: write `path.tmp`, then rename
/// it into place (no fsync). Returns false on I/O failure or when
/// checkpointing is compiled out.
bool write_checkpoint(const std::string& path, const CampaignCheckpoint& ck);

/// Load `path`: validate each frame as `decode_checkpoint` does and merge
/// their entries (first entry per trial wins). A torn or invalid *last* frame
/// is dropped with a warning; an invalid frame before the end, or no valid
/// frame, warns and returns nullopt (a missing file returns it silently), so
/// a damaged or stale checkpoint degrades to a fresh run.
std::optional<CampaignCheckpoint> load_checkpoint(const std::string& path,
                                                  const CampaignSpec& spec);

/// `$LORE_CHECKPOINT_DIR/<name>.ckpt` when the environment variable is set
/// and non-empty, otherwise "" (checkpointing off). The hook benches use so
/// `LORE_CHECKPOINT_DIR=... reproduce.sh` is interruptible end-to-end.
std::string default_checkpoint_path(std::string_view campaign_name);

// ---------------------------------------------------------------------------
// Shard construction + checkpoint merge — the campaign fabric's hand-off
// units (DESIGN.md §12). A coordinator splits a spec's [0, trials) index
// range into contiguous shards, workers run each shard with the identical
// counter-based per-trial seeding, results travel back as LORECKP1 payloads,
// and the coordinator folds them together entry by entry. Because every
// trial's stream is a pure function of (base_seed, index), the merged result
// is bit-identical to a single-process run at any shard/worker count.

/// Half-open sub-range [begin, end) of a campaign's trial indices.
struct TrialRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  std::size_t size() const { return end - begin; }
  friend bool operator==(const TrialRange&, const TrialRange&) = default;
};

/// Split [0, trials) into `shard_count` contiguous near-equal ranges (the
/// first `trials % shard_count` ranges are one longer). Empty ranges are
/// never produced: asking for more shards than trials yields `trials`
/// one-trial shards.
std::vector<TrialRange> shard_trial_ranges(std::size_t trials, std::size_t shard_count);

/// Merge `from`'s entries into `into`, discarding duplicates by trial index
/// (first valid result wins — the fabric's rule for stolen-then-completed
/// straggler shards) and entries outside [0, into.trials). `seen` is the
/// merger's occupancy bitmap, one byte per trial of `into`; it is updated in
/// place so a long-lived merger stays O(new entries). Returns the number of
/// entries accepted.
std::size_t merge_checkpoint_entries(CampaignCheckpoint& into,
                                     const CampaignCheckpoint& from,
                                     std::vector<std::uint8_t>& seen);

/// Convenience over the three-argument form: rebuilds the occupancy bitmap
/// from `into`'s current entries each call (fine for tests and one-shot
/// merges).
std::size_t merge_checkpoint_entries(CampaignCheckpoint& into,
                                     const CampaignCheckpoint& from);

/// Decode a (fully or partially) merged checkpoint into campaign records:
/// entries become kOk records via `Codec`, absent trials stay kSkipped.
/// Throws CheckpointError on a corrupt payload (fabric payloads are CRC-
/// verified on receipt, so this indicates a codec mismatch).
template <typename Record, typename Codec = PodCodec<Record>>
CampaignResult<Record> result_from_checkpoint(const CampaignSpec& spec,
                                              const CampaignCheckpoint& ck) {
  CampaignResult<Record> out;
  out.records.resize(spec.trials);
  out.status.assign(spec.trials, TrialStatus::kSkipped);
  out.report.trials = spec.trials;
  for (const auto& e : ck.entries) {
    const auto i = static_cast<std::size_t>(e.trial);
    if (i >= spec.trials || out.status[i] == TrialStatus::kOk) continue;
    ByteReader r(ck.payload(e));
    out.records[i] = Codec::decode(r);
    out.status[i] = TrialStatus::kOk;
    ++out.report.completed;
  }
  out.report.skipped = spec.trials - out.report.completed;
  return out;
}

// ---------------------------------------------------------------------------
// The chunk engine — DESIGN.md §9, §11.

/// Trials per chunk when `BatchOptions::chunk` is 0.
inline constexpr std::size_t kDefaultTrialChunk = 256;

/// True when `spec` carries no resilience policy: no checkpointing, no
/// per-trial deadline, no overall budget, no per-run trial cap. Only plain
/// specs run the predict-and-prune stage.
bool plain_campaign_spec(const CampaignSpec& spec);

struct BatchOptions {
  /// Trials per chunk (0 = kDefaultTrialChunk); capped at checkpoint_every.
  std::size_t chunk = 0;
};

// ---------------------------------------------------------------------------
// Online predict-and-prune stage (DESIGN.md §13).

/// Audit-fraction resolution: explicit request in [0, 1] > LORE_PRUNE_AUDIT
/// environment variable > 0.05. The audit fraction is the share of
/// predicted-benign trials that execute anyway so the live false-benign rate
/// is measurable (and feeds back into training).
double resolve_prune_audit(double requested);

/// True when pruned trial `index` is selected for audit: a pure function of
/// (audit_seed, index), so the audit subsample is identical at any thread or
/// chunk count — the same determinism contract as trial seeding.
inline bool prune_audit_selected(std::uint64_t audit_seed, std::size_t index,
                                 double fraction) {
  if (fraction >= 1.0) return true;
  if (fraction <= 0.0) return false;
  const std::uint64_t z = kernels::scalar::trial_seed_at(audit_seed, index);
  return static_cast<double>(z >> 11) * 0x1.0p-53 < fraction;
}

/// Shared safety breaker for predict-and-prune campaigns: counts pruned /
/// audited / false-benign trials and disables pruning for good when the
/// audit-measured false-benign rate crosses the alert threshold (with at
/// least `min_audits` audits behind it). Tripping publishes obs counters and
/// a kAlert event into the PR 5 health loop — graceful degradation back to
/// full execution, never silent accuracy loss. Thread-safe; share one
/// controller across campaigns to accumulate audit statistics.
class PruneController {
 public:
  struct Config {
    /// False-benign rate (false_benign / audits) that trips the breaker.
    double false_benign_alert = 0.2;
    /// Audits required before the rate is trusted.
    std::size_t min_audits = 20;
  };

  PruneController() = default;
  explicit PruneController(Config cfg) : cfg_(cfg) {}

  bool enabled() const { return !tripped_.load(std::memory_order_relaxed); }
  bool tripped() const { return tripped_.load(std::memory_order_relaxed); }

  void record_pruned(std::size_t n) {
    pruned_.fetch_add(n, std::memory_order_relaxed);
  }
  /// Record one audited trial's ground truth; may trip the breaker.
  void record_audit(bool was_benign);
  /// Manually trip (health loop / operator hook).
  void disable(const char* reason);

  std::size_t pruned() const { return pruned_.load(std::memory_order_relaxed); }
  std::size_t audits() const { return audits_.load(std::memory_order_relaxed); }
  std::size_t false_benign() const {
    return false_benign_.load(std::memory_order_relaxed);
  }
  double false_benign_rate() const {
    const auto a = audits();
    return a == 0 ? 0.0 : static_cast<double>(false_benign()) / static_cast<double>(a);
  }
  const Config& config() const { return cfg_; }

 private:
  Config cfg_{};
  std::atomic<std::size_t> pruned_{0}, audits_{0}, false_benign_{0};
  std::atomic<bool> tripped_{false};
};

/// Prune-stage hooks for `run_campaign_pruned`. With no `predict` hook every
/// trial runs, as in `run_campaign`. `predict` scores one chunk's
/// trials — `benign[i - begin] = 1` marks trial i predicted-benign —
/// from whatever descriptor the domain derives from the trial seed (the seed
/// span holds `trial_seed(spec.base_seed, i)` for the chunk, the same seeds
/// the trial bodies will draw). `is_benign` maps an executed Record to ground
/// truth for audit statistics; `on_executed` observes every executed trial
/// (prediction feedback / training — sampling is the callee's business).
template <typename Record>
struct PruneHooks {
  std::function<void(std::size_t begin, std::size_t end,
                     std::span<const std::uint64_t> seeds, std::span<std::uint8_t> benign)>
      predict;
  std::function<bool(const Record&)> is_benign;
  std::function<void(std::size_t index, const Record& record, bool predicted_benign,
                     bool audited)>
      on_executed;
  /// Fraction of predicted-benign trials executed anyway as audits
  /// (< 0 = resolve_prune_audit: LORE_PRUNE_AUDIT or 0.05).
  double audit_fraction = -1.0;
  /// Seed of the audit subsample (0 = derived from spec.base_seed).
  std::uint64_t audit_seed = 0;
  /// Optional shared breaker; when it trips, later chunks execute in full.
  PruneController* controller = nullptr;
};

namespace campaign_detail {

/// The non-template half of the chunk engine: one invocation's resilience
/// policy, tallies, metric handles (resolved once, never looked up per
/// trial), checkpoint log and shard sink. `run_window` drives it from the
/// typed loop.
class ChunkEngine {
 public:
  using Clock = CancelToken::Clock;

  /// Trials `window` are in play; `controller` is the prune breaker. With
  /// `shard`, every completed record lands in it, one entry slot per window
  /// trial in index order.
  ChunkEngine(const CampaignSpec& spec, TrialRange window, std::size_t chunk, bool pruning,
              PruneController* controller, CampaignCheckpoint* shard);

  std::size_t chunk() const { return chunk_; }
  /// True when finished chunks must encode their records for `publish`.
  bool encoding() const { return checkpointing_ || shard_ != nullptr; }
  /// The checkpoint on disk, when checkpointing and it validates.
  std::optional<CampaignCheckpoint> load() const {
    if (!checkpointing_) return std::nullopt;
    return load_checkpoint(spec_.checkpoint_path, spec_);
  }
  /// Begin with `resumed` trials done. When work is left, the `loaded`
  /// checkpoint's entries replace the file as its first frame — a stale,
  /// foreign or torn file is never appended to.
  void start(std::optional<CampaignCheckpoint> loaded, std::size_t resumed, bool work_left);
  /// An entry-less frame of this campaign (identity, build tag, trials).
  CampaignCheckpoint frame() const;

  /// Only for a spec with an overall budget / a per-trial deadline.
  bool out_of_budget() const { return Clock::now() - t_start_ >= spec_.overall_budget; }
  CancelToken token() const {
    return CancelToken::with_deadline(Clock::now() + spec_.trial_deadline);
  }
  /// Count, announce and back off before retry `attempt` of `trial`.
  void before_retry(std::size_t trial, unsigned attempt);
  /// Count and announce a failed attempt; `what` = nullptr for a timeout.
  void attempt_failed(std::size_t trial, unsigned attempt, const char* what);
  /// Per-chunk tallies; `first` is the chunk's first trial index.
  void chunk_done(std::size_t first, std::size_t ok, std::size_t pruned,
                  std::size_t audits, std::size_t false_benign);
  /// Hand on a finished chunk's encoded records: appended to the checkpoint
  /// file as one frame, and spliced into the shard's slots.
  void publish(const CampaignCheckpoint& batch);
  /// Fill `report` from the final statuses and the tallies.
  void finish(CampaignReport& report, std::span<const TrialStatus> status);

 private:
  const CampaignSpec& spec_;
  const std::size_t window_begin_;
  const std::size_t window_trials_;
  std::size_t chunk_;
  bool checkpointing_;
  const bool pruning_;
  PruneController* const controller_;
  const Clock::time_point t_start_;
  std::size_t resumed_ = 0;
  bool loaded_ = false;
  std::atomic<std::size_t> fresh_{0}, retries_{0}, timeout_attempts_{0}, suppressed_{0};
  std::atomic<std::size_t> audits_{0}, false_benign_{0}, checkpoints_written_{0};
  std::mutex io_mu_;   // serializes frame appends
  CampaignCheckpoint* const shard_;
  std::mutex shard_mu_;  // serializes splices into shard_
  std::mutex err_mu_;  // guards first_error_
  std::string first_error_;
  obs::Counter *completed_ = nullptr, *retried_ = nullptr, *timed_out_ = nullptr,
               *failed_ = nullptr, *checkpoints_ = nullptr, *pruned_ = nullptr,
               *audited_ = nullptr, *false_benign_counter_ = nullptr;
  obs::Gauge *progress_ = nullptr, *eta_ = nullptr;
  obs::Histogram* write_us_ = nullptr;
};

/// Run trials [window.begin, window.end) of `spec`; slot k of the result is
/// trial window.begin + k. Every public entry point is a view of this loop.
/// With `shard`, each chunk also encodes its completed records into it, in
/// parallel.
template <typename Record, typename Codec, typename TrialFn>
CampaignResult<Record> run_window(const CampaignSpec& spec, TrialRange window,
                                  TrialFn& trial, const PruneHooks<Record>& hooks,
                                  std::size_t chunk_request,
                                  CampaignCheckpoint* shard = nullptr) {
  const std::size_t n = window.size();
  CampaignResult<Record> out;
  out.records.resize(n);
  out.status.assign(n, TrialStatus::kSkipped);
  out.report.trials = n;

  const bool pruning = static_cast<bool>(hooks.predict) && plain_campaign_spec(spec);
  ChunkEngine engine(spec, window, chunk_request > 0 ? chunk_request : kDefaultTrialChunk,
                     pruning, hooks.controller, shard);

  // Resume: decode every checkpointed record of the window into its slot.
  // The frames passed CRC and identity checks, so a record that does not
  // decode is a codec mismatch: its CheckpointError propagates.
  std::optional<CampaignCheckpoint> ck = engine.load();
  std::size_t resumed = 0;
  if (ck) {
    for (const CheckpointEntry& e : ck->entries) {
      if (e.trial < window.begin || e.trial >= window.end) continue;
      const std::size_t k = static_cast<std::size_t>(e.trial) - window.begin;
      ByteReader r(ck->payload(e));
      out.records[k] = Codec::decode(r);
      out.status[k] = TrialStatus::kOk;
      ++resumed;
    }
  }

  // The slots to run: [0, todo) while nothing was resumed, else the missing
  // slots in index order; either way truncated to the per-run cap.
  std::vector<std::size_t> sparse;
  std::size_t todo = n;
  if (resumed > 0) {
    sparse.reserve(n - resumed);
    for (std::size_t k = 0; k < n; ++k)
      if (out.status[k] != TrialStatus::kOk) sparse.push_back(k);
    todo = sparse.size();
  }
  if (spec.max_trials_per_run && todo > spec.max_trials_per_run) {
    todo = spec.max_trials_per_run;
    if (!sparse.empty()) sparse.resize(todo);
  }
  engine.start(std::move(ck), resumed, todo > 0);

  const double audit_fraction = pruning ? resolve_prune_audit(hooks.audit_fraction) : 0.0;
  // Decorrelate the audit subsample from the trial seed stream by default.
  const std::uint64_t audit_seed =
      hooks.audit_seed != 0 ? hooks.audit_seed : spec.base_seed ^ 0x9e3779b97f4a7c15ULL;

  // Chunk spans nest under the caller's ambient span (a fabric shard span, a
  // scenario stage, ...), so a fleet trace shows each worker's chunk-level
  // progress; the scope also stamps events for the flight recorder.
  const obs::TraceContext trace_ctx = obs::current_trace_context();
  if (todo > 0)
    parallel_for_chunks(todo, spec.threads, engine.chunk(), [&](std::size_t jb,
                                                               std::size_t je) {
      obs::TraceContextScope trace_scope(trace_ctx);
      LORE_OBS_SPAN(chunk_span, "campaign.chunk");
      // Hot-loop state in locals, not re-read through captured references.
      const std::size_t* const missing = sparse.empty() ? nullptr : sparse.data();
      const auto slot = [missing](std::size_t j) { return missing ? missing[j] : j; };
      const bool budgeted = spec.overall_budget.count() > 0;
      const bool deadline = spec.trial_deadline.count() > 0;
      Arena& arena = Arena::for_thread();
      ArenaScope epoch(arena);
      const auto seeds = arena.alloc<std::uint64_t>(je - jb);
      if (missing == nullptr)
        kernels::fill_trial_seeds(seeds, spec.base_seed, window.begin + jb);
      else
        for (std::size_t j = jb; j < je; ++j)
          seeds[j - jb] = trial_seed(spec.base_seed, window.begin + missing[j]);
      // Re-evaluated per chunk so a controller trip stops pruning on every
      // chunk scored after it. Pruning implies a plain spec, so slots are
      // dense here.
      const bool prune_chunk =
          pruning && (hooks.controller == nullptr || hooks.controller->enabled());
      std::span<std::uint8_t> benign;
      if (prune_chunk) {
        benign = arena.alloc<std::uint8_t>(je - jb, /*zeroed=*/true);
        hooks.predict(window.begin + jb, window.begin + je,
                      std::span<const std::uint64_t>(seeds), benign);
      }
      const bool events = obs::kCompiledIn && obs::event_stream_enabled();
      // Only a flight record keeps a trial's duration (counting keeps the
      // kind alone), so the clock is read only while a flight ring is open.
      const bool timed = events && obs::FlightRecorder::global().active();
      std::size_t ok = 0, pruned = 0, audits = 0, false_benign = 0;
      for (std::size_t j = jb; j < je; ++j) {
        const std::size_t k = slot(j);
        const std::size_t i = window.begin + k;
        const bool predicted_benign = prune_chunk && benign[j - jb] != 0;
        const bool audited =
            predicted_benign && prune_audit_selected(audit_seed, i, audit_fraction);
        if (predicted_benign && !audited) {
          out.status[k] = TrialStatus::kPruned;
          ++pruned;
          continue;
        }
        if (budgeted && engine.out_of_budget()) continue;  // stays kSkipped for a resume
        TrialStatus status = TrialStatus::kFailed;
        for (unsigned attempt = 0; attempt <= spec.max_retries; ++attempt) {
          if (attempt > 0) engine.before_retry(i, attempt);
          const CancelToken cancel = deadline ? engine.token() : CancelToken();
          const double t0 = timed ? obs::TraceRecorder::now_us() : 0.0;
          try {
            // A fresh stream per attempt: a retried trial replays the exact
            // stream of its first attempt.
            Rng rng(seeds[j - jb]);
            out.records[k] = trial(i, rng, cancel);
            status = TrialStatus::kOk;
            if (events)
              LORE_OBS_EVENT(obs::EventKind::kTrialCompleted, i,
                             timed ? obs::TraceRecorder::now_us() - t0 : 0.0);
            break;
          } catch (const TrialTimeout&) {
            status = TrialStatus::kTimeout;
            engine.attempt_failed(i, attempt, nullptr);
          } catch (const std::exception& e) {
            status = TrialStatus::kFailed;
            engine.attempt_failed(i, attempt, e.what());
          } catch (...) {
            status = TrialStatus::kFailed;
            engine.attempt_failed(i, attempt, "unknown trial exception");
          }
        }
        out.status[k] = status;
        if (status != TrialStatus::kOk) continue;  // its record stays value-initialized
        ++ok;
        if (audited) {
          const bool truth = hooks.is_benign ? hooks.is_benign(out.records[k]) : true;
          ++audits;
          if (!truth) ++false_benign;
          if (hooks.controller) hooks.controller->record_audit(truth);
        }
        if (hooks.on_executed) hooks.on_executed(i, out.records[k], predicted_benign, audited);
      }
      if constexpr (requires { trial.chunk_done(); }) trial.chunk_done();
      engine.chunk_done(window.begin + slot(jb), ok, pruned, audits, false_benign);
      if (ok > 0 && engine.encoding()) {
        CampaignCheckpoint batch = engine.frame();
        batch.entries.reserve(ok);
        for (std::size_t j = jb; j < je; ++j) {
          const std::size_t k = slot(j);
          if (out.status[k] == TrialStatus::kOk)
            batch.add_record<Codec>(window.begin + k, out.records[k]);
        }
        engine.publish(batch);
      }
    });

  engine.finish(out.report, out.status);
  return out;
}

}  // namespace campaign_detail

/// Run a campaign under `spec` with an optional predict-and-prune stage.
/// `trial(i, rng, cancel)` computes the record of trial `i` from a fresh Rng
/// seeded with `trial_seed(spec.base_seed, i)` — on every attempt — so
/// records are bit-identical for every thread count, chunk size and resume
/// point. A body with a `chunk_done()` member has it called after each
/// chunk, on the thread that ran the chunk, to flush per-thread tallies.
///
/// The prune stage (DESIGN.md §13) runs when `hooks.predict` is set and the
/// spec is plain (`plain_campaign_spec`): each chunk is scored before
/// execution, and predicted-benign trials are skipped as `kPruned`
/// (value-initialized record) except for a seeded audit fraction. Which
/// trials are pruned is a pure function of (predictions, audit_seed), so
/// `audit_fraction = 1.0` reproduces prune=off outcomes bit-identically at
/// any thread count. A tripped PruneController stops pruning on chunks that
/// score after the trip.
template <typename Record, typename Codec = PodCodec<Record>, typename TrialFn>
CampaignResult<Record> run_campaign_pruned(const CampaignSpec& spec, TrialFn&& trial,
                                           const PruneHooks<Record>& hooks,
                                           const BatchOptions& opt = {}) {
  return campaign_detail::run_window<Record, Codec>(spec, TrialRange{0, spec.trials}, trial,
                                                    hooks, opt.chunk);
}

/// Run a campaign under `spec`: `run_campaign_pruned` with no prune stage.
template <typename Record, typename Codec = PodCodec<Record>, typename TrialFn>
CampaignResult<Record> run_campaign(const CampaignSpec& spec, TrialFn&& trial,
                                    const BatchOptions& opt = {}) {
  return run_campaign_pruned<Record, Codec>(spec, trial, PruneHooks<Record>{}, opt);
}

/// Worker half of the fabric hand-off: run trials [range.begin, range.end) of
/// `spec` on the chunk engine — each seeded `trial_seed(spec.base_seed,
/// global_index)`, the same contract as run_campaign — and return their
/// records encoded through `Codec` as a LORECKP1-ready checkpoint (identity +
/// build tag filled in, one entry per trial in index order; each chunk
/// encodes its records in parallel and splices them into the one payload
/// buffer, so no trial gets its own allocation). The spec's
/// resilience policy is ignored: the coordinator owns checkpoints, deadlines
/// and budgets (DESIGN.md §12). Failed trials retry up to spec.max_retries
/// times with backoff; if one still fails the shard throws as a unit (the
/// coordinator re-dispatches it).
template <typename Record, typename Codec = PodCodec<Record>, typename TrialFn>
CampaignCheckpoint run_campaign_shard(const CampaignSpec& spec, TrialRange range,
                                      TrialFn&& trial) {
  CampaignCheckpoint ck{spec.identity_hash(), checkpoint_build_tag(), spec.trials, {}, {}};
  if (range.end > spec.trials) range.end = spec.trials;
  if (range.begin >= range.end) return ck;
  CampaignSpec plain = spec;
  plain.checkpoint_path.clear();
  plain.trial_deadline = plain.overall_budget = {};
  plain.max_trials_per_run = 0;
  const auto result = campaign_detail::run_window<Record, Codec>(
      plain, range, trial, PruneHooks<Record>{}, 0, &ck);
  if (!result.report.complete())
    throw std::runtime_error("shard trial failed: " + result.report.first_error);
  return ck;
}

}  // namespace lore
