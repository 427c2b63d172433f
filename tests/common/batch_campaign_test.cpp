// Contract tests for the chunk engine behind `run_campaign` and every
// other campaign entry point (DESIGN.md §9, §11): records and statuses equal
// a serial per-trial oracle across chunk sizes and thread counts, per-trial
// RNG stream identity, retry and failure degradation, and resilient specs
// (deadline, budget, per-run cap, checkpoint) giving the same records as a
// plain run.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "src/common/campaign.hpp"

namespace {

using namespace lore;

struct Sample {
  std::uint64_t value = 0;
  std::uint64_t index = 0;
  friend bool operator==(const Sample&, const Sample&) = default;
};

CampaignSpec plain_spec(std::size_t trials, unsigned threads) {
  CampaignSpec spec;
  spec.trials = trials;
  spec.base_seed = 4242;
  spec.threads = threads;
  spec.domain = "test.batch";
  return spec;
}

/// Serial per-trial oracle: trial i computed from a fresh
/// Rng(trial_seed(base_seed, i)), one at a time in index order — what the
/// chunk engine must reproduce at any chunk size and thread count.
template <typename Record, typename TrialFn>
std::vector<Record> serial_oracle(const CampaignSpec& spec, const TrialFn& trial) {
  std::vector<Record> out(spec.trials);
  for (std::size_t i = 0; i < spec.trials; ++i) {
    Rng rng(trial_seed(spec.base_seed, i));
    out[i] = trial(i, rng, CancelToken());
  }
  return out;
}

TEST(BatchCampaign, MatchesReferenceAcrossChunkSizesAndThreads) {
  const auto trial = [](std::size_t t, Rng& rng, const CancelToken&) {
    return Sample{rng.next_u64(), t};
  };
  const auto reference = serial_oracle<Sample>(plain_spec(1000, 1), trial);
  for (const std::size_t chunk : {std::size_t{1}, std::size_t{3}, std::size_t{64},
                                  std::size_t{1000}, std::size_t{4096}}) {
    for (const unsigned threads : {1u, 4u, 0u}) {
      BatchOptions opt;
      opt.chunk = chunk;
      const auto batched = run_campaign<Sample>(plain_spec(1000, threads), trial, opt);
      EXPECT_EQ(reference, batched.records) << "chunk=" << chunk << " threads=" << threads;
      EXPECT_EQ(batched.status, std::vector<TrialStatus>(1000, TrialStatus::kOk));
      EXPECT_EQ(batched.report.completed, 1000u);
      EXPECT_TRUE(batched.report.complete());
    }
  }
}

TEST(BatchCampaign, TrialRngStreamIsTheEngineContract) {
  // Trial i must see a fresh Rng seeded with trial_seed(base_seed, i) —
  // exactly the documented determinism contract.
  const auto result = run_campaign<std::uint64_t>(
      plain_spec(257, 0),
      [](std::size_t, Rng& rng, const CancelToken&) { return rng.next_u64(); });
  ASSERT_EQ(result.report.completed, 257u);
  for (std::size_t t = 0; t < 257; ++t) {
    Rng expected(trial_seed(4242, t));
    EXPECT_EQ(result.records[t], expected.next_u64()) << "t=" << t;
  }
}

TEST(BatchCampaign, PersistentFailuresDegradeToFailedStatus) {
  CampaignSpec spec = plain_spec(100, 4);
  spec.max_retries = 2;
  spec.retry_backoff = std::chrono::milliseconds(0);
  const auto result = run_campaign<Sample>(
      spec, [](std::size_t t, Rng&, const CancelToken&) {
        if (t % 10 == 3) throw std::runtime_error("trial exploded");
        return Sample{t * 2, t};
      });
  EXPECT_EQ(result.report.completed, 90u);
  EXPECT_EQ(result.report.failed, 10u);
  EXPECT_FALSE(result.report.complete());
  // Each failing trial burns the initial attempt plus max_retries retries.
  EXPECT_EQ(result.report.retries, 10u * 2u);
  EXPECT_EQ(result.report.suppressed_exceptions, 10u * 3u);
  EXPECT_EQ(result.report.first_error, "trial exploded");
  for (std::size_t t = 0; t < 100; ++t) {
    if (t % 10 == 3) {
      EXPECT_EQ(result.status[t], TrialStatus::kFailed);
      EXPECT_EQ(result.records[t], Sample{}) << "failed slot must be value-initialized";
    } else {
      EXPECT_EQ(result.status[t], TrialStatus::kOk);
      EXPECT_EQ(result.records[t].value, t * 2);
    }
  }
}

TEST(BatchCampaign, TransientFailuresRecoverViaRetry) {
  CampaignSpec spec = plain_spec(64, 4);
  spec.max_retries = 1;
  spec.retry_backoff = std::chrono::milliseconds(0);
  std::vector<std::atomic<int>> attempts(64);
  const auto result = run_campaign<Sample>(
      spec, [&](std::size_t t, Rng& rng, const CancelToken&) {
        if (t % 8 == 1 && attempts[t].fetch_add(1) == 0)
          throw std::runtime_error("transient");
        return Sample{rng.next_u64(), t};
      });
  EXPECT_EQ(result.report.completed, 64u);
  EXPECT_TRUE(result.report.complete());
  EXPECT_EQ(result.report.retries, 8u);
  EXPECT_EQ(result.report.suppressed_exceptions, 8u);
  // The retried attempt re-seeds from scratch: same stream as never failing.
  for (std::size_t t = 0; t < 64; ++t) {
    Rng expected(trial_seed(4242, t));
    EXPECT_EQ(result.records[t].value, expected.next_u64());
    EXPECT_EQ(result.status[t], TrialStatus::kOk);
  }
}

TEST(BatchCampaign, ResilientSpecsMatchPlainRun) {
  // Deadlines, budgets, per-run caps and checkpoints are policy, not
  // identity: each runs on the same chunk engine and gives the plain run's
  // records (a cap leaves the trials past it kSkipped).
  CampaignSpec plain = plain_spec(300, 1);
  EXPECT_TRUE(plain_campaign_spec(plain));
  const auto trial = [](std::size_t t, Rng& rng, const CancelToken& cancel) {
    cancel.throw_if_cancelled();
    return Sample{rng.next_u64(), t};
  };
  const auto reference = serial_oracle<Sample>(plain, trial);

  auto with_deadline = plain;
  with_deadline.trial_deadline = std::chrono::milliseconds(10000);
  auto with_budget = plain;
  with_budget.overall_budget = std::chrono::milliseconds(60000);
  auto with_cap = plain;
  with_cap.max_trials_per_run = 120;
  auto with_checkpoint = plain;
  with_checkpoint.checkpoint_path = ::testing::TempDir() + "batch_resilient.ckpt";
  with_checkpoint.checkpoint_every = 16;
  for (const CampaignSpec* spec : {&with_deadline, &with_budget, &with_cap, &with_checkpoint})
    EXPECT_FALSE(plain_campaign_spec(*spec));

  for (const unsigned threads : {1u, 4u}) {
    for (CampaignSpec spec : {with_deadline, with_budget, with_checkpoint}) {
      spec.threads = threads;
      std::filesystem::remove(with_checkpoint.checkpoint_path);
      const auto result = run_campaign<Sample>(spec, trial);
      EXPECT_TRUE(result.report.complete()) << "threads=" << threads;
      EXPECT_EQ(result.records, reference) << "threads=" << threads;
    }
    CampaignSpec capped = with_cap;
    capped.threads = threads;
    const auto result = run_campaign<Sample>(capped, trial);
    EXPECT_EQ(result.report.completed, 120u);
    EXPECT_EQ(result.report.skipped, 180u);
    for (std::size_t t = 0; t < 300; ++t) {
      if (t < 120) {
        EXPECT_EQ(result.records[t], reference[t]) << "t=" << t;
      } else {
        EXPECT_EQ(result.status[t], TrialStatus::kSkipped) << "t=" << t;
      }
    }
  }
  std::filesystem::remove(with_checkpoint.checkpoint_path);
}

TEST(BatchCampaign, ZeroTrials) {
  const auto result = run_campaign<Sample>(
      plain_spec(0, 4),
      [](std::size_t t, Rng&, const CancelToken&) { return Sample{0, t}; });
  EXPECT_EQ(result.records.size(), 0u);
  EXPECT_TRUE(result.report.complete());
}

}  // namespace
