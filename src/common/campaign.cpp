#include "src/common/campaign.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>

#include "src/obs/crc32.hpp"
#include "src/obs/obs.hpp"

#ifndef LORE_BUILD_TAG
#define LORE_BUILD_TAG "unknown"
#endif

namespace lore {
namespace {

constexpr char kMagic[8] = {'L', 'O', 'R', 'E', 'C', 'K', 'P', '1'};
constexpr std::uint32_t kVersion = 1;

std::uint64_t fnv1a(std::uint64_t h, const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

void warn_checkpoint(std::string_view source, const char* reason) {
  std::fprintf(stderr, "lore: checkpoint %.*s: %s; ignored\n",
               static_cast<int>(source.size()), source.data(), reason);
}

}  // namespace

bool plain_campaign_spec(const CampaignSpec& spec) {
  return spec.checkpoint_path.empty() && spec.trial_deadline.count() == 0 &&
         spec.overall_budget.count() == 0 && spec.max_trials_per_run == 0;
}

const char* trial_status_name(TrialStatus s) {
  switch (s) {
    case TrialStatus::kOk: return "ok";
    case TrialStatus::kTimeout: return "timeout";
    case TrialStatus::kFailed: return "failed";
    case TrialStatus::kSkipped: return "skipped";
    case TrialStatus::kPruned: return "pruned";
  }
  return "?";
}

double resolve_prune_audit(double requested) {
  if (requested >= 0.0) return requested > 1.0 ? 1.0 : requested;
  static const double env_audit = [] {
    const char* env = std::getenv("LORE_PRUNE_AUDIT");
    if (!env || !*env) return -1.0;
    const double v = std::atof(env);
    return v >= 0.0 ? (v > 1.0 ? 1.0 : v) : -1.0;
  }();
  return env_audit >= 0.0 ? env_audit : 0.05;
}

void PruneController::record_audit(bool was_benign) {
  const auto a = audits_.fetch_add(1, std::memory_order_relaxed) + 1;
  const auto fb = false_benign_.fetch_add(was_benign ? 0 : 1, std::memory_order_relaxed) +
                  (was_benign ? 0 : 1);
  if (was_benign || a < cfg_.min_audits) return;
  const double rate = static_cast<double>(fb) / static_cast<double>(a);
  if (rate > cfg_.false_benign_alert) disable("campaign.prune.false_benign");
}

void PruneController::disable(const char* reason) {
  if (tripped_.exchange(true, std::memory_order_relaxed)) return;  // first trip only
  if (obs::kCompiledIn && obs::enabled()) {
    obs::MetricsRegistry::global().counter("campaign.prune_trips").add(1);
    obs::emit_event(obs::EventKind::kAlert, audits(), false_benign_rate(), reason);
  }
}

std::uint64_t CampaignSpec::identity_hash() const {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV offset basis
  const std::uint64_t t = trials;
  h = fnv1a(h, &t, sizeof t);
  h = fnv1a(h, &base_seed, sizeof base_seed);
  h = fnv1a(h, domain.data(), domain.size());
  return h;
}

void ByteWriter::regrow(std::size_t n) { buf_.resize(std::max(2 * buf_.size(), size_ + n)); }

void ByteReader::truncated() { throw CheckpointError("truncated payload"); }

std::string checkpoint_build_tag() { return LORE_BUILD_TAG; }

std::string default_checkpoint_path(std::string_view campaign_name) {
  const char* dir = std::getenv("LORE_CHECKPOINT_DIR");
  if (!dir || !*dir) return {};
  std::string path(dir);
  path += '/';
  path += campaign_name;
  path += ".ckpt";
  return path;
}

std::string encode_checkpoint(const CampaignCheckpoint& ck) {
  // Sized exactly: header, 12 bytes + payload per entry, CRC.
  std::size_t size = sizeof kMagic + 4 + 8 + 4 + ck.build_tag.size() + 8 + 8 + 4;
  for (const CheckpointEntry& e : ck.entries) size += 12 + e.size;
  ByteWriter w;
  w.reserve(size);
  w.put_bytes(kMagic, sizeof kMagic);
  w.put_u32(kVersion);
  w.put_u64(ck.identity);
  w.put_str(ck.build_tag);
  w.put_u64(ck.trials);
  w.put_u64(ck.entries.size());
  const char* const payloads = ck.payloads.view().data();
  for (const auto& e : ck.entries) {
    w.put_u64(e.trial);
    w.put_u32(e.size);
    w.put_bytes(payloads + e.offset, e.size);
  }
  w.put_u32(obs::crc32(w.view().data(), w.size()));
  return std::move(w).take();
}

std::optional<CampaignCheckpoint> decode_checkpoint(std::string bytes,
                                                    const CampaignSpec& spec,
                                                    std::string_view source) {
  if (bytes.size() < sizeof kMagic + 4) {
    warn_checkpoint(source, "payload too short");
    return std::nullopt;
  }
  const std::size_t body_len = bytes.size() - 4;
  std::uint32_t stored_crc = 0;
  for (int i = 0; i < 4; ++i)
    stored_crc |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(bytes[body_len + i]))
                  << (8 * i);
  if (obs::crc32(bytes.data(), body_len) != stored_crc) {
    warn_checkpoint(source, "CRC mismatch (corrupted or torn payload)");
    return std::nullopt;
  }

  try {
    ByteReader r(std::string_view(bytes).substr(0, body_len));
    char magic[sizeof kMagic];
    r.get_bytes(magic, sizeof magic);
    if (std::memcmp(magic, kMagic, sizeof kMagic) != 0) {
      warn_checkpoint(source, "bad magic");
      return std::nullopt;
    }
    if (r.get_u32() != kVersion) {
      warn_checkpoint(source, "unsupported version");
      return std::nullopt;
    }
    CampaignCheckpoint ck;
    ck.identity = r.get_u64();
    ck.build_tag = r.get_str();
    ck.trials = r.get_u64();
    // Mis-routed payloads (a shard for a different campaign, a checkpoint
    // from another workload) are an expected fabric failure mode: name both
    // sides of every mismatch so the operator can tell *which* campaign the
    // stray payload belonged to.
    if (ck.identity != spec.identity_hash()) {
      char msg[192];
      std::snprintf(msg, sizeof msg,
                    "identity mismatch (expected %016llx, found %016llx, "
                    "payload build tag \"%s\")",
                    static_cast<unsigned long long>(spec.identity_hash()),
                    static_cast<unsigned long long>(ck.identity),
                    ck.build_tag.c_str());
      warn_checkpoint(source, msg);
      return std::nullopt;
    }
    if (ck.trials != spec.trials) {
      char msg[128];
      std::snprintf(msg, sizeof msg, "trial count mismatch (expected %llu, found %llu)",
                    static_cast<unsigned long long>(spec.trials),
                    static_cast<unsigned long long>(ck.trials));
      warn_checkpoint(source, msg);
      return std::nullopt;
    }
    if (ck.build_tag != checkpoint_build_tag()) {
      char msg[192];
      std::snprintf(msg, sizeof msg, "stale build tag (expected \"%s\", found \"%s\")",
                    checkpoint_build_tag().c_str(), ck.build_tag.c_str());
      warn_checkpoint(source, msg);
      return std::nullopt;
    }
    // Every entry takes at least 12 bytes (u64 trial + u32 payload length):
    // a count the remaining bytes cannot hold is corrupt, and must not size
    // an allocation. Every payload length is checked against the bytes left.
    const std::uint64_t count = r.get_u64();
    if (count > r.remaining() / 12) {
      warn_checkpoint(source, "entry count exceeds payload");
      return std::nullopt;
    }
    ck.entries.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) {
      const std::uint64_t trial = r.get_u64();
      if (trial >= ck.trials) {
        warn_checkpoint(source, "trial index out of range");
        return std::nullopt;
      }
      const std::uint32_t size = r.get_u32();
      ck.entries.push_back({trial, body_len - r.remaining(), size});
      r.skip(size);
    }
    ck.payloads = ByteWriter(std::move(bytes));
    return ck;
  } catch (const CheckpointError&) {
    warn_checkpoint(source, "truncated");
    return std::nullopt;
  }
}

namespace {

/// Byte length of the LORECKP1 frame at the start of `bytes`, found by
/// walking its length fields (0 = the bytes end before the frame does). The
/// walk takes at most size/12 entry steps, whatever the fields claim.
std::size_t checkpoint_frame_size(std::string_view bytes) {
  try {
    ByteReader r(bytes);
    r.skip(sizeof kMagic + 4 + 8);  // magic, version, identity
    r.skip(r.get_u32());            // build tag
    r.skip(8);                      // trials
    const std::uint64_t count = r.get_u64();
    if (count > r.remaining() / 12) return 0;
    for (std::uint64_t i = 0; i < count; ++i) {
      r.skip(8);  // trial
      r.skip(r.get_u32());
    }
    r.skip(4);  // CRC
    return bytes.size() - r.remaining();
  } catch (const CheckpointError&) {
    return 0;
  }
}

/// Append `ck` as one more frame to `path`. A crash mid-append leaves a torn
/// tail frame that `load_checkpoint` drops.
bool append_checkpoint(const std::string& path, const CampaignCheckpoint& ck) {
  const std::string bytes = encode_checkpoint(ck);
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (!f) return false;
  const bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace

bool write_checkpoint(const std::string& path, const CampaignCheckpoint& ck) {
  const std::string bytes = encode_checkpoint(ck);

  // Write to a sibling temp file and rename into place: a SIGKILL mid-write
  // leaves either the previous file or a stray .tmp — never a torn first
  // frame at `path`.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  ok = std::fclose(f) == 0 && ok;
  if (!ok) {
    std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::optional<CampaignCheckpoint> load_checkpoint(const std::string& path,
                                                  const CampaignSpec& spec) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;  // no checkpoint yet: silent fresh start
  std::string bytes;
  char buf[1 << 16];
  for (std::size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) bytes.append(buf, n);
  std::fclose(f);

  std::optional<CampaignCheckpoint> merged;
  std::vector<std::uint8_t> seen;
  for (std::size_t offset = 0; offset < bytes.size();) {
    const std::string_view rest = std::string_view(bytes).substr(offset);
    const std::size_t len = checkpoint_frame_size(rest);
    if (len == 0) {
      warn_checkpoint(path, merged ? "torn tail frame dropped" : "truncated first frame");
      break;
    }
    std::optional<CampaignCheckpoint> frame =
        decode_checkpoint(std::string(rest.substr(0, len)), spec, path);
    if (!frame) {
      if (len == rest.size()) break;  // an invalid last frame: dropped (warned above)
      warn_checkpoint(path, "invalid frame before the end of the file");
      return std::nullopt;
    }
    if (!merged) {
      merged = CampaignCheckpoint{frame->identity, frame->build_tag, frame->trials, {}, {}};
      merged->payloads.reserve(bytes.size());  // holds every frame's payloads
    }
    merge_checkpoint_entries(*merged, *frame, seen);
    offset += len;
  }
  return merged;
}

std::vector<TrialRange> shard_trial_ranges(std::size_t trials, std::size_t shard_count) {
  std::vector<TrialRange> out;
  if (trials == 0 || shard_count == 0) return out;
  if (shard_count > trials) shard_count = trials;
  out.reserve(shard_count);
  const std::size_t base = trials / shard_count;
  const std::size_t extra = trials % shard_count;
  std::size_t begin = 0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    const std::size_t len = base + (s < extra ? 1 : 0);
    out.push_back({begin, begin + len});
    begin += len;
  }
  return out;
}

std::size_t merge_checkpoint_entries(CampaignCheckpoint& into,
                                     const CampaignCheckpoint& from,
                                     std::vector<std::uint8_t>& seen) {
  seen.resize(static_cast<std::size_t>(into.trials), 0);
  std::size_t accepted = 0;
  for (const auto& e : from.entries) {
    const auto i = static_cast<std::size_t>(e.trial);
    if (i >= into.trials || seen[i]) continue;
    seen[i] = 1;
    into.add(e.trial, from.payload(e));
    ++accepted;
  }
  return accepted;
}

std::size_t merge_checkpoint_entries(CampaignCheckpoint& into,
                                     const CampaignCheckpoint& from) {
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(into.trials), 0);
  for (const auto& e : into.entries)
    if (e.trial < into.trials) seen[static_cast<std::size_t>(e.trial)] = 1;
  return merge_checkpoint_entries(into, from, seen);
}

namespace campaign_detail {

ChunkEngine::ChunkEngine(const CampaignSpec& spec, TrialRange window, std::size_t chunk,
                         bool pruning, PruneController* controller,
                         CampaignCheckpoint* shard)
    : spec_(spec),
      window_begin_(window.begin),
      window_trials_(window.size()),
      chunk_(chunk),
      checkpointing_(!spec.checkpoint_path.empty() && spec.checkpoint_every > 0),
      pruning_(pruning),
      controller_(controller),
      t_start_(Clock::now()),
      shard_(shard) {
  if (shard_) shard_->entries.resize(window_trials_);
  // One frame per chunk: an interrupt loses at most checkpoint_every trials
  // per worker.
  if (checkpointing_) chunk_ = std::min(chunk_, spec.checkpoint_every);
  if (!obs::kCompiledIn || !obs::enabled()) return;
  auto& registry = obs::MetricsRegistry::global();
  completed_ = &registry.counter("campaign.trials_completed");
  retried_ = &registry.counter("campaign.retries");
  timed_out_ = &registry.counter("campaign.timeouts");
  failed_ = &registry.counter("campaign.trial_failures");
  progress_ = &registry.gauge("campaign.progress");
  if (checkpointing_) {
    checkpoints_ = &registry.counter("campaign.checkpoints");
    eta_ = &registry.gauge("campaign.eta_s");
    write_us_ = &registry.histogram("campaign.checkpoint_write_us");
  }
  if (pruning_) {
    pruned_ = &registry.counter("campaign.trials_pruned");
    audited_ = &registry.counter("campaign.prune_audits");
    false_benign_counter_ = &registry.counter("campaign.prune_false_benign");
  }
}

CampaignCheckpoint ChunkEngine::frame() const {
  return {spec_.identity_hash(), checkpoint_build_tag(), spec_.trials, {}, {}};
}

void ChunkEngine::start(std::optional<CampaignCheckpoint> loaded, std::size_t resumed,
                        bool work_left) {
  resumed_ = resumed;
  loaded_ = loaded.has_value();
  if (completed_) {
    obs::MetricsRegistry::global().counter("campaign.trials_resumed").add(resumed);
    progress_->set(window_trials_ ? static_cast<double>(resumed) /
                                        static_cast<double>(window_trials_)
                                  : 1.0);
  }
  if (!checkpointing_ || !work_left) return;
  // The first frame is rewritten whole, so later appends always extend a
  // file of this campaign; if that fails, append nothing. A loaded
  // checkpoint passed the identity checks, so its header is this frame's.
  checkpointing_ = loaded ? write_checkpoint(spec_.checkpoint_path, *loaded)
                          : write_checkpoint(spec_.checkpoint_path, frame());
  if (checkpointing_) checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
}

void ChunkEngine::before_retry(std::size_t trial, unsigned attempt) {
  retries_.fetch_add(1, std::memory_order_relaxed);
  if (retried_) retried_->add(1);
  LORE_OBS_EVENT(obs::EventKind::kTrialRetry, trial, attempt);
  std::this_thread::sleep_for(spec_.retry_backoff * (1u << (attempt - 1)));
}

void ChunkEngine::attempt_failed(std::size_t trial, unsigned attempt, const char* what) {
  if (what == nullptr) {
    timeout_attempts_.fetch_add(1, std::memory_order_relaxed);
    if (timed_out_) timed_out_->add(1);
    LORE_OBS_EVENT(obs::EventKind::kTrialTimeout, trial, attempt);
    return;
  }
  suppressed_.fetch_add(1, std::memory_order_relaxed);
  if (failed_) failed_->add(1);
  LORE_OBS_EVENT(obs::EventKind::kTrialFailed, trial, attempt);
  std::lock_guard lock(err_mu_);
  if (first_error_.empty()) first_error_ = what;
}

void ChunkEngine::chunk_done(std::size_t first, std::size_t ok, std::size_t pruned,
                             std::size_t audits, std::size_t false_benign) {
  const std::size_t fresh = fresh_.fetch_add(ok, std::memory_order_relaxed) + ok;
  if (completed_ && ok) {
    completed_->add(ok);
    progress_->set(static_cast<double>(resumed_ + fresh) /
                   static_cast<double>(window_trials_));
  }
  if (!pruning_) return;
  if (pruned && controller_) controller_->record_pruned(pruned);
  // Prune decisions as structured events (not just a counter): a = trials
  // pruned in this chunk, value = first trial index of the chunk — enough
  // for intervals, traces, and the post-mortem toolkit to reconstruct which
  // ranges were skipped and under which span.
  if (pruned) LORE_OBS_EVENT(obs::EventKind::kTrialsPruned, pruned, static_cast<double>(first));
  audits_.fetch_add(audits, std::memory_order_relaxed);
  false_benign_.fetch_add(false_benign, std::memory_order_relaxed);
  if (pruned_) {
    pruned_->add(pruned);
    audited_->add(audits);
    false_benign_counter_->add(false_benign);
  }
}

void ChunkEngine::publish(const CampaignCheckpoint& batch) {
  if (shard_) {
    std::lock_guard lock(shard_mu_);
    // Size the buffer for the whole window from the first chunk's bytes per
    // record (exact for fixed-size records), instead of regrowing it.
    if (shard_->payloads.size() == 0)
      shard_->payloads.reserve(batch.payloads.size() * window_trials_ /
                               batch.entries.size());
    const std::size_t base = shard_->payloads.size();
    shard_->payloads.put_bytes(batch.payloads.view().data(), batch.payloads.size());
    for (const CheckpointEntry& e : batch.entries)
      shard_->entries[e.trial - window_begin_] = {e.trial, base + e.offset, e.size};
  }
  if (!checkpointing_) return;
  const std::size_t count = batch.entries.size();
  const auto w0 = Clock::now();
  {
    std::lock_guard lock(io_mu_);
    if (!append_checkpoint(spec_.checkpoint_path, batch)) return;
  }
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  const double us = std::chrono::duration<double, std::micro>(Clock::now() - w0).count();
  LORE_OBS_EVENT(obs::EventKind::kCheckpointWritten, count, us);
  if (!checkpoints_) return;
  write_us_->observe(us);
  checkpoints_->add(1);
  // ETA from this run's own throughput (resumed trials cost nothing).
  const std::size_t fresh = fresh_.load(std::memory_order_relaxed);
  const std::size_t done = resumed_ + fresh;
  if (fresh > 0 && done < window_trials_)
    eta_->set(std::chrono::duration<double>(Clock::now() - t_start_).count() /
              static_cast<double>(fresh) * static_cast<double>(window_trials_ - done));
}

void ChunkEngine::finish(CampaignReport& rep, std::span<const TrialStatus> status) {
  const auto bytes = std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(status.data()), status.size());
  const auto count = [&](TrialStatus s) {
    return kernels::count_equal_u8(bytes, static_cast<std::uint8_t>(s));
  };
  rep.completed = count(TrialStatus::kOk);
  rep.timeouts = count(TrialStatus::kTimeout);
  rep.failed = count(TrialStatus::kFailed);
  rep.skipped = count(TrialStatus::kSkipped);
  rep.pruned = count(TrialStatus::kPruned);
  rep.resumed = resumed_;
  rep.loaded_checkpoint = loaded_;
  rep.prune_audits = audits_.load(std::memory_order_relaxed);
  rep.prune_false_benign = false_benign_.load(std::memory_order_relaxed);
  rep.prune_disabled = pruning_ && controller_ != nullptr && controller_->tripped();
  rep.retries = retries_.load(std::memory_order_relaxed);
  rep.timeout_attempts = timeout_attempts_.load(std::memory_order_relaxed);
  rep.suppressed_exceptions = suppressed_.load(std::memory_order_relaxed);
  rep.checkpoints_written = checkpoints_written_.load(std::memory_order_relaxed);
  rep.first_error = std::move(first_error_);
  if (progress_)
    progress_->set(window_trials_ ? static_cast<double>(rep.completed) /
                                        static_cast<double>(window_trials_)
                                  : 1.0);
}

}  // namespace campaign_detail
}  // namespace lore
