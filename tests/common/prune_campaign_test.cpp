// Contract tests for the predict-and-prune campaign stage (DESIGN.md §13):
// audit=1.0 bit-identity with the unpruned engine at any thread/chunk count,
// kPruned statuses + report tallies, seeded audit determinism, false-benign
// accounting, and the PruneController breaker degrading back to full
// execution.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
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
  spec.base_seed = 777;
  spec.threads = threads;
  spec.domain = "test.prune";
  return spec;
}

Sample make_trial(std::size_t t, Rng& rng) { return Sample{rng.next_u64(), t}; }

/// Deterministic "model": predicts benign when the first draw of the trial's
/// stream is even (a pure function of the seed, like the real featurizer).
bool seed_predicts_benign(std::uint64_t seed) { return Rng(seed).next_u64() % 2 == 0; }

PruneHooks<Sample> benign_even_hooks() {
  PruneHooks<Sample> hooks;
  hooks.predict = [](std::size_t, std::size_t, std::span<const std::uint64_t> seeds,
                     std::span<std::uint8_t> benign) {
    for (std::size_t i = 0; i < seeds.size(); ++i)
      benign[i] = seed_predicts_benign(seeds[i]) ? 1 : 0;
  };
  // Ground truth agrees with the prediction (value is the first draw).
  hooks.is_benign = [](const Sample& s) { return s.value % 2 == 0; };
  return hooks;
}

TEST(PruneCampaign, FullAuditIsBitIdenticalToUnpruned) {
  const auto trial = [](std::size_t t, Rng& rng, const CancelToken&) {
    return make_trial(t, rng);
  };
  const auto reference = run_campaign<Sample>(plain_spec(1000, 1), trial);
  for (const unsigned threads : {1u, 2u, 4u, 8u}) {
    for (const std::size_t chunk : {1u, 7u, 64u, 1000u}) {
      auto hooks = benign_even_hooks();
      hooks.audit_fraction = 1.0;  // everything predicted-benign still executes
      BatchOptions opt;
      opt.chunk = chunk;
      const auto pruned =
          run_campaign_pruned<Sample>(plain_spec(1000, threads), trial, hooks, opt);
      ASSERT_EQ(pruned.records, reference.records)
          << "threads=" << threads << " chunk=" << chunk;
      ASSERT_EQ(pruned.status, reference.status);
      EXPECT_EQ(pruned.report.pruned, 0u);
      EXPECT_GT(pruned.report.prune_audits, 0u);
      EXPECT_EQ(pruned.report.prune_false_benign, 0u);
      EXPECT_FALSE(pruned.report.prune_disabled);
    }
  }
}

TEST(PruneCampaign, PrunedTrialsAreMarkedAndValueInitialized) {
  const auto trial = [](std::size_t t, Rng& rng, const CancelToken&) {
    return make_trial(t, rng);
  };
  auto hooks = benign_even_hooks();
  hooks.audit_fraction = 0.0;  // prune every predicted-benign trial
  const auto spec = plain_spec(500, 2);
  const auto result = run_campaign_pruned<Sample>(spec, trial, hooks);
  std::size_t pruned = 0;
  for (std::size_t i = 0; i < spec.trials; ++i) {
    const bool predicted = seed_predicts_benign(trial_seed(spec.base_seed, i));
    if (predicted) {
      ASSERT_EQ(result.status[i], TrialStatus::kPruned) << i;
      ASSERT_EQ(result.records[i], Sample{}) << i;
      ++pruned;
    } else {
      ASSERT_EQ(result.status[i], TrialStatus::kOk) << i;
      ASSERT_EQ(result.records[i].index, i);
    }
  }
  EXPECT_GT(pruned, 0u);
  EXPECT_EQ(result.report.pruned, pruned);
  EXPECT_EQ(result.report.completed, spec.trials - pruned);
  EXPECT_EQ(result.report.prune_audits, 0u);
  EXPECT_STREQ(trial_status_name(TrialStatus::kPruned), "pruned");
}

TEST(PruneCampaign, AuditSubsampleIsThreadAndChunkInvariant) {
  const auto trial = [](std::size_t t, Rng& rng, const CancelToken&) {
    return make_trial(t, rng);
  };
  auto hooks = benign_even_hooks();
  hooks.audit_fraction = 0.25;
  hooks.audit_seed = 42;
  const auto first = run_campaign_pruned<Sample>(plain_spec(2000, 1), trial, hooks);
  for (const unsigned threads : {2u, 8u}) {
    for (const std::size_t chunk : {3u, 128u}) {
      BatchOptions opt;
      opt.chunk = chunk;
      const auto again =
          run_campaign_pruned<Sample>(plain_spec(2000, threads), trial, hooks, opt);
      ASSERT_EQ(again.status, first.status) << "threads=" << threads << " chunk=" << chunk;
      ASSERT_EQ(again.records, first.records);
      ASSERT_EQ(again.report.prune_audits, first.report.prune_audits);
    }
  }
  // The fraction roughly holds: audited + pruned = predicted-benign, and
  // audits land near 25% of that population.
  const std::size_t predicted = first.report.pruned + first.report.prune_audits;
  EXPECT_GT(predicted, 0u);
  const double audit_share = static_cast<double>(first.report.prune_audits) /
                             static_cast<double>(predicted);
  EXPECT_NEAR(audit_share, 0.25, 0.08);
}

TEST(PruneCampaign, FalseBenignAuditsAreCounted) {
  const auto trial = [](std::size_t t, Rng& rng, const CancelToken&) {
    return make_trial(t, rng);
  };
  PruneHooks<Sample> hooks;
  // A deliberately wrong model: everything is predicted benign, but ground
  // truth calls odd first-draws non-benign (~half the audits are false).
  hooks.predict = [](std::size_t, std::size_t, std::span<const std::uint64_t>,
                     std::span<std::uint8_t> benign) {
    for (auto& b : benign) b = 1;
  };
  hooks.is_benign = [](const Sample& s) { return s.value % 2 == 0; };
  hooks.audit_fraction = 0.5;
  const auto result = run_campaign_pruned<Sample>(plain_spec(1000, 2), trial, hooks);
  EXPECT_GT(result.report.prune_audits, 0u);
  EXPECT_GT(result.report.prune_false_benign, 0u);
  EXPECT_LT(result.report.prune_false_benign, result.report.prune_audits);
}

TEST(PruneCampaign, ControllerTripsAndDisablesPruning) {
  PruneController controller(PruneController::Config{.false_benign_alert = 0.2,
                                                     .min_audits = 10});
  EXPECT_TRUE(controller.enabled());
  const auto trial = [](std::size_t t, Rng& rng, const CancelToken&) {
    return make_trial(t, rng);
  };
  PruneHooks<Sample> hooks;
  hooks.predict = [](std::size_t, std::size_t, std::span<const std::uint64_t>,
                     std::span<std::uint8_t> benign) {
    for (auto& b : benign) b = 1;  // always wrong half the time
  };
  hooks.is_benign = [](const Sample& s) { return s.value % 2 == 0; };
  hooks.audit_fraction = 0.5;
  hooks.controller = &controller;
  // Small chunks so post-trip chunks are actually scored after the trip.
  BatchOptions opt;
  opt.chunk = 16;
  const auto result =
      run_campaign_pruned<Sample>(plain_spec(2000, 1), trial, hooks, opt);
  EXPECT_TRUE(controller.tripped());
  EXPECT_TRUE(result.report.prune_disabled);
  EXPECT_GT(controller.false_benign_rate(), 0.2);
  // Pruning stopped partway: far fewer pruned trials than the ~50% an
  // untripped run would skip.
  EXPECT_LT(result.report.pruned, 500u);
  // A tripped controller suppresses the prune stage entirely on new runs.
  const auto after = run_campaign_pruned<Sample>(plain_spec(500, 1), trial, hooks);
  EXPECT_EQ(after.report.pruned, 0u);
  EXPECT_EQ(after.report.completed, 500u);
}

TEST(PruneCampaign, AuditSelectionIsPureAndClamped) {
  EXPECT_TRUE(prune_audit_selected(1, 5, 1.0));
  EXPECT_FALSE(prune_audit_selected(1, 5, 0.0));
  for (std::size_t i = 0; i < 50; ++i)
    EXPECT_EQ(prune_audit_selected(9, i, 0.3), prune_audit_selected(9, i, 0.3));
  // Roughly the requested fraction over a large population.
  std::size_t hits = 0;
  for (std::size_t i = 0; i < 10000; ++i) hits += prune_audit_selected(77, i, 0.1);
  EXPECT_NEAR(static_cast<double>(hits) / 10000.0, 0.1, 0.02);
}

TEST(PruneCampaign, ResolvePruneAuditPrecedence) {
  EXPECT_DOUBLE_EQ(resolve_prune_audit(0.3), 0.3);
  EXPECT_DOUBLE_EQ(resolve_prune_audit(0.0), 0.0);
  EXPECT_DOUBLE_EQ(resolve_prune_audit(2.5), 1.0);  // clamped
  // The env var / 0.05 default is latched once per process; without
  // LORE_PRUNE_AUDIT set in the test environment the default applies.
  if (std::getenv("LORE_PRUNE_AUDIT") == nullptr) {
    EXPECT_DOUBLE_EQ(resolve_prune_audit(-1.0), 0.05);
  }
}

TEST(PruneCampaign, NoPredictHookMeansNoPruning) {
  const auto trial = [](std::size_t t, Rng& rng, const CancelToken&) {
    return make_trial(t, rng);
  };
  const auto reference = run_campaign<Sample>(plain_spec(300, 2), trial);
  const auto pruned =
      run_campaign_pruned<Sample>(plain_spec(300, 2), trial, PruneHooks<Sample>{});
  EXPECT_EQ(pruned.records, reference.records);
  EXPECT_EQ(pruned.report.pruned, 0u);
  EXPECT_EQ(pruned.report.prune_audits, 0u);
}

}  // namespace
