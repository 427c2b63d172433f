// Resilience contract of the campaign runtime (src/common/campaign.hpp):
// checkpoints survive corruption/truncation/staleness by degrading to a fresh
// run; the file is a stream of appended frames whose torn tail is dropped and
// which grows by the new trials' bytes per slice; a SIGKILL-ed campaign
// resumes bit-identically at any thread count;
// hung trials time out, retry with backoff, and degrade into the report; the
// pool reports suppressed job exceptions instead of dropping them.
#include "src/common/campaign.hpp"

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <thread>

#include "src/obs/obs.hpp"

namespace lore {
namespace {

using namespace std::chrono_literals;

/// Trivially copyable record whose bytes are a pure function of the trial
/// index and its seeded stream — any scheduling or resume difference shows up
/// as a byte difference.
struct ProbeRecord {
  std::uint64_t trial = 0;
  std::uint64_t draw = 0;
  friend bool operator==(const ProbeRecord&, const ProbeRecord&) = default;
};

ProbeRecord probe_trial(std::size_t t, Rng& rng) {
  return ProbeRecord{t, rng.next_u64()};
}

std::string temp_ckpt(const char* name) {
  return ::testing::TempDir() + "resilience_" + name + ".ckpt";
}

CampaignSpec base_spec(std::size_t trials, const char* name) {
  CampaignSpec spec;
  spec.trials = trials;
  spec.base_seed = 2024;
  spec.domain = std::string("test.probe/") + name;
  spec.checkpoint_path = temp_ckpt(name);
  spec.checkpoint_every = 1;
  std::filesystem::remove(spec.checkpoint_path);
  return spec;
}

CampaignResult<ProbeRecord> run_probe(const CampaignSpec& spec) {
  return run_campaign<ProbeRecord>(
      spec, [](std::size_t t, Rng& rng, const CancelToken&) { return probe_trial(t, rng); });
}

/// Rewrite a finished campaign's multi-frame checkpoint as one frame — the
/// layout a single `write_checkpoint` produces.
void compact_checkpoint(const CampaignSpec& spec) {
  const auto loaded = load_checkpoint(spec.checkpoint_path, spec);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_TRUE(write_checkpoint(spec.checkpoint_path, *loaded));
}

/// Bytes of one frame holding `entries` ProbeRecord entries of `spec`.
std::size_t frame_bytes(const CampaignSpec& spec, std::size_t entries) {
  CampaignCheckpoint ck;
  ck.identity = spec.identity_hash();
  ck.build_tag = checkpoint_build_tag();
  ck.trials = spec.trials;
  return encode_checkpoint(ck).size() + entries * (8 + 4 + sizeof(ProbeRecord));
}

TEST(Checkpoint, RoundTripPreservesEntries) {
  CampaignSpec spec = base_spec(10, "roundtrip");
  CampaignCheckpoint ck;
  ck.identity = spec.identity_hash();
  ck.build_tag = checkpoint_build_tag();
  ck.trials = spec.trials;
  ck.add(2, "payload-two");
  ck.add(7, std::string("\x00\xff zero", 7));
  ASSERT_TRUE(write_checkpoint(spec.checkpoint_path, ck));

  const auto loaded = load_checkpoint(spec.checkpoint_path, spec);
  ASSERT_TRUE(loaded.has_value());
  ASSERT_EQ(loaded->entries.size(), 2u);
  EXPECT_EQ(loaded->entries[0].trial, 2u);
  EXPECT_EQ(loaded->payload(loaded->entries[0]), "payload-two");
  EXPECT_EQ(loaded->entries[1].trial, 7u);
  EXPECT_EQ(loaded->payload(loaded->entries[1]), ck.payload(ck.entries[1]));
}

TEST(Checkpoint, MissingFileIsNotAnError) {
  CampaignSpec spec = base_spec(4, "missing");
  EXPECT_FALSE(load_checkpoint(spec.checkpoint_path, spec).has_value());
}

TEST(Checkpoint, CorruptedByteFallsBackToFreshRun) {
  CampaignSpec spec = base_spec(12, "corrupt");
  ASSERT_TRUE(run_probe(spec).report.complete());
  compact_checkpoint(spec);

  // Flip one payload byte in the middle of the file: the CRC must reject it.
  std::fstream f(spec.checkpoint_path,
                 std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  f.seekg(0, std::ios::end);
  const auto size = static_cast<std::streamoff>(f.tellg());
  ASSERT_GT(size, 32);
  f.seekp(size / 2);
  char byte = 0;
  f.seekg(size / 2);
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(size / 2);
  f.write(&byte, 1);
  f.close();

  EXPECT_FALSE(load_checkpoint(spec.checkpoint_path, spec).has_value());
  const auto fresh = run_probe(spec);  // must not crash or resume poison
  EXPECT_FALSE(fresh.report.loaded_checkpoint);
  EXPECT_EQ(fresh.report.resumed, 0u);
  EXPECT_TRUE(fresh.report.complete());
}

TEST(Checkpoint, TruncatedFileFallsBackToFreshRun) {
  CampaignSpec spec = base_spec(12, "truncated");
  ASSERT_TRUE(run_probe(spec).report.complete());
  compact_checkpoint(spec);
  const auto size = std::filesystem::file_size(spec.checkpoint_path);
  std::filesystem::resize_file(spec.checkpoint_path, size / 2);

  EXPECT_FALSE(load_checkpoint(spec.checkpoint_path, spec).has_value());
  const auto fresh = run_probe(spec);
  EXPECT_FALSE(fresh.report.loaded_checkpoint);
  EXPECT_TRUE(fresh.report.complete());
}

TEST(Checkpoint, StaleBuildTagIsRejected) {
  CampaignSpec spec = base_spec(6, "stale");
  CampaignCheckpoint ck;
  ck.identity = spec.identity_hash();
  ck.build_tag = "stale-build";
  ck.trials = spec.trials;
  ck.add(0, "old payload");
  ASSERT_TRUE(write_checkpoint(spec.checkpoint_path, ck));
  EXPECT_FALSE(load_checkpoint(spec.checkpoint_path, spec).has_value());
}

TEST(Checkpoint, SpecIdentityMismatchIsRejected) {
  CampaignSpec spec = base_spec(6, "mismatch");
  ASSERT_TRUE(run_probe(spec).report.complete());

  CampaignSpec other = spec;
  other.base_seed += 1;  // identity field: different campaign
  EXPECT_FALSE(load_checkpoint(spec.checkpoint_path, other).has_value());

  CampaignSpec policy_change = spec;
  policy_change.threads = 7;  // policy field: same campaign
  policy_change.checkpoint_every = 3;
  EXPECT_TRUE(load_checkpoint(spec.checkpoint_path, policy_change).has_value());
}

TEST(Checkpoint, TornTailFrameIsDroppedAndResumeIsBitIdentical) {
  CampaignSpec reference_spec = base_spec(40, "torn_ref");
  reference_spec.checkpoint_path.clear();
  const auto reference = run_probe(reference_spec);

  for (unsigned threads : {1u, 4u}) {
    CampaignSpec spec = base_spec(40, "torn");
    spec.threads = threads;
    spec.checkpoint_every = 5;
    spec.max_trials_per_run = 20;
    ASSERT_EQ(run_probe(spec).report.completed, 20u);
    // First frame (empty) + 4 appended frames of 5 entries each.
    const std::size_t size = std::filesystem::file_size(spec.checkpoint_path);
    ASSERT_EQ(size, frame_bytes(spec, 0) * 5 + 20 * (8 + 4 + sizeof(ProbeRecord)));
    // A crash mid-append: cut the last frame in half.
    std::filesystem::resize_file(spec.checkpoint_path, size - frame_bytes(spec, 5) / 2);

    testing::internal::CaptureStderr();
    const auto loaded = load_checkpoint(spec.checkpoint_path, spec);
    const std::string err = testing::internal::GetCapturedStderr();
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(loaded->entries.size(), 15u);
    EXPECT_NE(err.find("torn tail frame dropped"), std::string::npos) << err;

    spec.max_trials_per_run = 0;
    testing::internal::CaptureStderr();
    const auto resumed = run_probe(spec);
    testing::internal::GetCapturedStderr();
    ASSERT_TRUE(resumed.report.complete());
    EXPECT_EQ(resumed.report.resumed, 15u);
    EXPECT_EQ(resumed.records, reference.records) << "threads=" << threads;
    // The resumed run rewrote the file: it now loads whole, with no warning.
    testing::internal::CaptureStderr();
    const auto after = load_checkpoint(spec.checkpoint_path, spec);
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
    ASSERT_TRUE(after.has_value());
    EXPECT_EQ(after->entries.size(), 40u);
  }
}

TEST(Checkpoint, CorruptFrameBeforeTheEndRejectsTheFile) {
  CampaignSpec spec = base_spec(10, "midframe");
  spec.threads = 1;
  spec.checkpoint_every = 5;
  ASSERT_TRUE(run_probe(spec).report.complete());
  // Flip the last payload byte of the first appended frame (the file is an
  // empty first frame, then two 5-entry frames).
  const std::size_t offset = frame_bytes(spec, 0) + frame_bytes(spec, 5) - 5;
  std::fstream f(spec.checkpoint_path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.is_open());
  char byte = 0;
  f.seekg(static_cast<std::streamoff>(offset));
  f.read(&byte, 1);
  byte = static_cast<char>(byte ^ 0x40);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&byte, 1);
  f.close();

  testing::internal::CaptureStderr();
  EXPECT_FALSE(load_checkpoint(spec.checkpoint_path, spec).has_value());
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("CRC mismatch"), std::string::npos) << err;
  EXPECT_NE(err.find("invalid frame before the end"), std::string::npos) << err;
}

TEST(Checkpoint, StaleOrForeignFileIsReplacedNotAppendedTo) {
  CampaignSpec spec = base_spec(16, "foreign");
  spec.checkpoint_every = 4;
  CampaignSpec other = spec;
  other.base_seed += 1;  // another campaign's checkpoint at the same path
  CampaignSpec other_run = other;
  other_run.max_trials_per_run = 8;
  ASSERT_EQ(run_probe(other_run).report.completed, 8u);
  const auto foreign_size = std::filesystem::file_size(spec.checkpoint_path);

  testing::internal::CaptureStderr();
  const auto result = run_probe(spec);
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_NE(err.find("identity mismatch"), std::string::npos) << err;
  EXPECT_FALSE(result.report.loaded_checkpoint);
  ASSERT_TRUE(result.report.complete());
  // The file holds this campaign alone: an empty first frame + 4 frames.
  EXPECT_EQ(std::filesystem::file_size(spec.checkpoint_path),
            frame_bytes(spec, 0) * 5 + 16 * (8 + 4 + sizeof(ProbeRecord)));
  EXPECT_NE(std::filesystem::file_size(spec.checkpoint_path), foreign_size);
  EXPECT_FALSE(load_checkpoint(spec.checkpoint_path, other).has_value());
  const auto mine = load_checkpoint(spec.checkpoint_path, spec);
  ASSERT_TRUE(mine.has_value());
  EXPECT_EQ(mine->entries.size(), 16u);

  // A stale build tag is replaced the same way.
  CampaignCheckpoint stale;
  stale.identity = spec.identity_hash();
  stale.build_tag = "stale-build";
  stale.trials = spec.trials;
  stale.add(0, std::string(sizeof(ProbeRecord), 'x'));
  ASSERT_TRUE(write_checkpoint(spec.checkpoint_path, stale));
  testing::internal::CaptureStderr();
  const auto rerun = run_probe(spec);
  testing::internal::GetCapturedStderr();
  EXPECT_FALSE(rerun.report.loaded_checkpoint);
  EXPECT_EQ(rerun.records, result.records);
}

TEST(Checkpoint, FileGrowsByTheNewTrialsPerSlice) {
  // Exact byte accounting: every slice rewrites the first frame with what
  // was loaded and appends one frame per chunk, so slice k leaves
  // (1 + frames per slice) headers plus k * slice entries — the file grows
  // by the slice's own entries, never by a rewrite of everything before.
  constexpr std::size_t kSlice = 30, kEvery = 8;
  constexpr std::size_t kFramesPerSlice = (kSlice + kEvery - 1) / kEvery;
  constexpr std::size_t kEntry = 8 + 4 + sizeof(ProbeRecord);
  for (unsigned threads : {1u, 4u}) {
    CampaignSpec spec = base_spec(4 * kSlice, "growth");
    spec.threads = threads;
    spec.checkpoint_every = kEvery;
    spec.max_trials_per_run = kSlice;
    std::size_t previous = 0;
    for (std::size_t k = 1; k <= 4; ++k) {
      const auto result = run_probe(spec);
      ASSERT_EQ(result.report.completed, k * kSlice);
      EXPECT_EQ(result.report.checkpoints_written, 1 + kFramesPerSlice);
      const std::size_t size = std::filesystem::file_size(spec.checkpoint_path);
      EXPECT_EQ(size, frame_bytes(spec, 0) * (1 + kFramesPerSlice) + k * kSlice * kEntry)
          << "slice " << k << " threads " << threads;
      if (k > 1) {
        EXPECT_EQ(size - previous, kSlice * kEntry);
      }
      previous = size;
    }
    // A finished campaign resumes everything and writes nothing.
    const auto done = run_probe(spec);
    EXPECT_EQ(done.report.resumed, 4 * kSlice);
    EXPECT_EQ(done.report.checkpoints_written, 0u);
    EXPECT_EQ(std::filesystem::file_size(spec.checkpoint_path), previous);
  }
}

TEST(Checkpoint, DefaultPathComesFromEnvironment) {
  unsetenv("LORE_CHECKPOINT_DIR");
  EXPECT_EQ(default_checkpoint_path("fi"), "");
  setenv("LORE_CHECKPOINT_DIR", "/tmp/lore-ckpt", 1);
  EXPECT_EQ(default_checkpoint_path("fi"), "/tmp/lore-ckpt/fi.ckpt");
  unsetenv("LORE_CHECKPOINT_DIR");
}

TEST(Resume, ChunkedRunsAreBitIdenticalAtAnyThreadCount) {
  CampaignSpec reference_spec = base_spec(20, "chunk_ref");
  reference_spec.checkpoint_path.clear();
  const auto reference = run_probe(reference_spec);
  ASSERT_TRUE(reference.report.complete());

  const unsigned hw = std::thread::hardware_concurrency();
  for (unsigned threads : {1u, 4u, hw ? hw : 2u}) {
    CampaignSpec spec = base_spec(20, "chunk");
    spec.threads = threads;
    spec.max_trials_per_run = 7;
    CampaignResult<ProbeRecord> result;
    std::size_t invocations = 0;
    do {
      result = run_probe(spec);
      ASSERT_LT(++invocations, 10u) << "campaign failed to converge";
    } while (!result.report.complete());
    EXPECT_EQ(invocations, 3u);  // ceil(20 / 7)
    EXPECT_TRUE(result.report.loaded_checkpoint);
    EXPECT_GT(result.report.resumed, 0u);
    EXPECT_EQ(result.records, reference.records) << "threads=" << threads;
  }
}

TEST(Resume, SigkilledCampaignResumesBitIdentical) {
  CampaignSpec spec = base_spec(64, "sigkill");

  const pid_t child = fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    // Child: grind through the campaign slowly so the parent can kill it
    // mid-flight with checkpoints on disk.
    CampaignSpec slow = spec;
    slow.threads = 2;
    run_campaign<ProbeRecord>(slow,
                              [](std::size_t t, Rng& rng, const CancelToken&) {
                                std::this_thread::sleep_for(3ms);
                                return probe_trial(t, rng);
                              });
    _exit(0);
  }

  // Parent: wait for evidence of progress, then SIGKILL — no graceful exit.
  for (int i = 0; i < 1000; ++i) {
    std::error_code ec;
    if (std::filesystem::exists(spec.checkpoint_path, ec)) break;
    std::this_thread::sleep_for(2ms);
  }
  std::this_thread::sleep_for(20ms);
  kill(child, SIGKILL);
  int status = 0;
  waitpid(child, &status, 0);
  ASSERT_TRUE(WIFSIGNALED(status));
  ASSERT_EQ(WTERMSIG(status), SIGKILL);

  // The file on disk is a valid checkpoint (atomic rename: never half-written).
  const auto loaded = load_checkpoint(spec.checkpoint_path, spec);
  if (loaded.has_value()) {
    EXPECT_LE(loaded->entries.size(), spec.trials);
  }

  CampaignSpec resume = spec;
  resume.threads = 4;
  const auto resumed = run_probe(resume);
  EXPECT_TRUE(resumed.report.complete());
  if (loaded.has_value() && !loaded->entries.empty()) {
    EXPECT_TRUE(resumed.report.loaded_checkpoint);
  }

  CampaignSpec uninterrupted = spec;
  uninterrupted.checkpoint_path = temp_ckpt("sigkill_ref");
  std::filesystem::remove(uninterrupted.checkpoint_path);
  const auto reference = run_probe(uninterrupted);
  EXPECT_EQ(resumed.records, reference.records);
}

TEST(Deadline, HungTrialTimesOutRetriesAndDegrades) {
  auto& registry = obs::MetricsRegistry::global();
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto timeouts_before = registry.counter("campaign.timeouts").value();
  const auto retries_before = registry.counter("campaign.retries").value();

  CampaignSpec spec;
  spec.trials = 8;
  spec.base_seed = 7;
  spec.domain = "test.hang";
  spec.threads = 2;
  spec.trial_deadline = 20ms;
  spec.max_retries = 2;
  spec.retry_backoff = 1ms;
  const std::size_t hung = 3;
  const auto result = run_campaign<ProbeRecord>(
      spec, [&](std::size_t t, Rng& rng, const CancelToken& cancel) {
        if (t == hung) {
          for (;;) {  // a hang: only the deadline can stop it
            std::this_thread::sleep_for(1ms);
            cancel.throw_if_cancelled();
          }
        }
        return probe_trial(t, rng);
      });

  EXPECT_EQ(result.status[hung], TrialStatus::kTimeout);
  EXPECT_EQ(result.report.timeouts, 1u);
  EXPECT_EQ(result.report.timeout_attempts, 3u);  // initial + 2 retries
  EXPECT_EQ(result.report.retries, 2u);
  EXPECT_EQ(result.report.completed, spec.trials - 1);
  EXPECT_FALSE(result.report.complete());
  for (std::size_t t = 0; t < spec.trials; ++t) {
    if (t != hung) {
      EXPECT_EQ(result.status[t], TrialStatus::kOk);
    }
  }

  // The obs counter tallies timed-out attempts (3 here: initial + 2 retries).
  EXPECT_EQ(registry.counter("campaign.timeouts").value(), timeouts_before + 3);
  EXPECT_GE(registry.counter("campaign.retries").value(), retries_before + 2);
  obs::set_enabled(was_enabled);
}

TEST(Deadline, RetrySucceedsWithIdenticalStream) {
  // A trial that times out once, then completes, must produce the same bytes
  // as a trial that never timed out: each attempt replays the same stream.
  CampaignSpec flaky_spec;
  flaky_spec.trials = 6;
  flaky_spec.base_seed = 99;
  flaky_spec.domain = "test.flaky";
  flaky_spec.threads = 1;
  flaky_spec.trial_deadline = 50ms;
  flaky_spec.max_retries = 2;
  flaky_spec.retry_backoff = 1ms;
  std::atomic<int> attempts{0};
  const auto flaky = run_campaign<ProbeRecord>(
      flaky_spec, [&](std::size_t t, Rng& rng, const CancelToken&) {
        if (t == 2 && attempts.fetch_add(1) == 0) throw TrialTimeout();
        return probe_trial(t, rng);
      });
  ASSERT_TRUE(flaky.report.complete());
  EXPECT_EQ(flaky.report.retries, 1u);

  CampaignSpec clean_spec = flaky_spec;
  const auto clean = run_campaign<ProbeRecord>(
      clean_spec,
      [](std::size_t t, Rng& rng, const CancelToken&) { return probe_trial(t, rng); });
  EXPECT_EQ(flaky.records, clean.records);
}

TEST(Deadline, FailingTrialIsRecordedWithFirstError) {
  CampaignSpec spec;
  spec.trials = 5;
  spec.base_seed = 3;
  spec.domain = "test.fail";
  spec.threads = 2;
  spec.max_retries = 1;
  spec.retry_backoff = 1ms;
  const auto result = run_campaign<ProbeRecord>(
      spec, [](std::size_t t, Rng& rng, const CancelToken&) {
        if (t == 1) throw std::runtime_error("boom in trial 1");
        return probe_trial(t, rng);
      });
  EXPECT_EQ(result.status[1], TrialStatus::kFailed);
  EXPECT_EQ(result.report.failed, 1u);
  EXPECT_EQ(result.report.suppressed_exceptions, 2u);  // initial + 1 retry
  EXPECT_NE(result.report.first_error.find("boom in trial 1"), std::string::npos);
  EXPECT_EQ(result.records[1], ProbeRecord{});  // failed slot value-initialized
}

TEST(Budget, ExhaustedBudgetSkipsAndResumeFinishes) {
  CampaignSpec spec = base_spec(24, "budget");
  spec.threads = 2;
  spec.overall_budget = 1ms;
  const auto slow_probe = [](std::size_t t, Rng& rng, const CancelToken&) {
    std::this_thread::sleep_for(3ms);
    return probe_trial(t, rng);
  };
  const auto partial = run_campaign<ProbeRecord>(spec, slow_probe);
  EXPECT_GT(partial.report.skipped, 0u);
  EXPECT_FALSE(partial.report.complete());

  CampaignSpec resume = spec;
  resume.overall_budget = {};
  const auto finished = run_campaign<ProbeRecord>(resume, slow_probe);
  ASSERT_TRUE(finished.report.complete());

  CampaignSpec reference = spec;
  reference.overall_budget = {};
  reference.checkpoint_path.clear();
  const auto uninterrupted = run_campaign<ProbeRecord>(reference, slow_probe);
  EXPECT_EQ(finished.records, uninterrupted.records);
}

TEST(Pool, SuppressedExceptionsAreCountedAndReported) {
  auto& counter = obs::MetricsRegistry::global().counter("pool.suppressed_exceptions");
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  const auto before = counter.value();

  ThreadPool pool(4);
  for (int i = 0; i < 8; ++i)
    pool.submit([] { throw std::runtime_error("job exploded"); });
  try {
    pool.wait();
    FAIL() << "wait() must rethrow";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("job exploded"), std::string::npos);
    EXPECT_NE(what.find("+7 suppressed job exception(s)"), std::string::npos) << what;
  }
  EXPECT_EQ(counter.value(), before + 7);
  obs::set_enabled(was_enabled);
}

TEST(Pool, SingleExceptionKeepsOriginalTypeAndMessage) {
  ThreadPool pool(2);
  pool.submit([] { throw std::logic_error("lonely failure"); });
  EXPECT_THROW(pool.wait(), std::logic_error);
}

}  // namespace
}  // namespace lore
