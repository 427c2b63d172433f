// End-to-end predict-and-prune fault-injection campaign (DESIGN.md §13):
// FaultSiteFeaturizer determinism, the online observe → train → prune loop
// on a real workload, audit=1.0 outcome identity with the full campaign at
// multiple thread counts, and the fallback rules.
#include <gtest/gtest.h>

#include <vector>

#include "src/arch/fault.hpp"
#include "src/arch/features.hpp"
#include "src/arch/workloads.hpp"
#include "src/ml/predictor.hpp"

namespace {

using namespace lore;
using namespace lore::arch;

CampaignSpec plain_spec(std::size_t trials, unsigned threads) {
  CampaignSpec spec;
  spec.trials = trials;
  spec.base_seed = 4242;
  spec.threads = threads;
  return spec;
}

ml::PredictorConfig quick_config() {
  ml::PredictorConfig cfg;
  cfg.model = ml::PredictorModel::kGbdt;
  cfg.min_train_samples = 48;
  cfg.gbdt.num_rounds = 10;
  return cfg;
}

TEST(FaultSiteFeaturizer, DeterministicAndNormalized) {
  const auto w = make_checksum(8, 3);
  const FaultInjector injector(w);
  const FaultSiteFeaturizer featurizer(w, injector.golden().cycles);
  Rng rng(5);
  for (const auto target :
       {FaultTarget::kRegister, FaultTarget::kMemory, FaultTarget::kInstruction}) {
    for (int i = 0; i < 20; ++i) {
      const FaultSite site = injector.random_site(rng, target);
      std::vector<double> a(kFaultSiteFeatureDim), b(kFaultSiteFeatureDim);
      featurizer.featurize(site, a);
      featurizer.featurize(site, b);
      ASSERT_EQ(a, b);
      // One-hot target marker and normalized descriptor coordinates.
      ASSERT_EQ(a[static_cast<std::size_t>(target)], 1.0);
      ASSERT_GE(a[3], 0.0);
      ASSERT_LE(a[3], 1.0);
      ASSERT_LE(a[4], 1.0);
      ASSERT_LE(a[5], 1.0);
      if (target != FaultTarget::kRegister) {
        for (std::size_t f = 6; f < kFaultSiteFeatureDim; ++f) ASSERT_EQ(a[f], 0.0);
      }
    }
  }
}

TEST(PrunedFaultCampaign, UntrainedPredictorExecutesEverythingAndFeedsModel) {
  const auto w = make_checksum(8, 3);
  const FaultInjector injector(w);
  ml::Predictor predictor(quick_config());
  PruneCampaignOptions opt;
  opt.feedback_stride = 2;
  const auto result =
      injector.campaign_run_pruned(plain_spec(400, 2), FaultTarget::kRegister,
                                   predictor, opt);
  EXPECT_EQ(result.report.pruned, 0u);  // no snapshot yet: nothing prunes
  EXPECT_EQ(result.report.completed, 400u);
  EXPECT_GE(predictor.observed(), 200u);  // every 2nd trial fed back
}

TEST(PrunedFaultCampaign, FullAuditMatchesFullCampaignAtAnyThreadCount) {
  const auto w = make_checksum(8, 3);
  const FaultInjector injector(w);
  ml::Predictor predictor(quick_config());
  // Warm up + train so the prune stage actually scores.
  injector.campaign_run_pruned(plain_spec(400, 1), FaultTarget::kRegister, predictor,
                               PruneCampaignOptions{.feedback_stride = 1});
  predictor.train_now();

  const auto spec1 = plain_spec(600, 1);
  const auto full = injector.campaign_run(spec1, FaultTarget::kRegister);
  PruneCampaignOptions opt;
  opt.audit_fraction = 1.0;  // audit everything: outcomes must be identical
  for (const unsigned threads : {1u, 2u, 4u}) {
    const auto pruned = injector.campaign_run_pruned(plain_spec(600, threads),
                                                     FaultTarget::kRegister,
                                                     predictor, opt);
    ASSERT_EQ(pruned.records, full.records) << "threads=" << threads;
    ASSERT_EQ(pruned.status, full.status);
    ASSERT_EQ(pruned.report.pruned, 0u);
  }
}

TEST(PrunedFaultCampaign, TrainedPredictorPrunesAndAccountsAudits) {
  const auto w = make_checksum(8, 3);
  const FaultInjector injector(w);
  ml::Predictor predictor(quick_config());
  injector.campaign_run_pruned(plain_spec(600, 1), FaultTarget::kRegister, predictor,
                               PruneCampaignOptions{.feedback_stride = 1});
  ASSERT_TRUE(predictor.train_now());

  PruneCampaignOptions opt;
  opt.audit_fraction = 0.1;
  opt.benign_threshold = 0.6;  // low bar so register faults (mostly benign) prune
  const auto spec = plain_spec(1000, 2);
  const auto result =
      injector.campaign_run_pruned(spec, FaultTarget::kRegister, predictor, opt);
  EXPECT_GT(result.report.pruned, 0u);
  EXPECT_EQ(result.report.completed + result.report.pruned, spec.trials);
  // Pruned slots carry no fabricated outcome.
  for (std::size_t i = 0; i < spec.trials; ++i) {
    if (result.status[i] == TrialStatus::kPruned) {
      ASSERT_EQ(result.records[i], FaultRecord{});
    }
  }
  // Executed trials are bit-identical to the full campaign at their index.
  const auto full = injector.campaign_run(spec, FaultTarget::kRegister);
  for (std::size_t i = 0; i < spec.trials; ++i) {
    if (result.status[i] == TrialStatus::kOk) {
      ASSERT_EQ(result.records[i], full.records[i]) << i;
    }
  }
}

TEST(PrunedFaultCampaign, NonPlainSpecFallsBackToFullExecution) {
  const auto w = make_checksum(8, 3);
  const FaultInjector injector(w);
  ml::Predictor predictor(quick_config());
  auto spec = plain_spec(100, 1);
  spec.max_trials_per_run = 100;  // non-plain: runs as campaign_run, never prunes
  const auto result =
      injector.campaign_run_pruned(spec, FaultTarget::kRegister, predictor);
  EXPECT_EQ(result.report.pruned, 0u);
  EXPECT_EQ(result.report.completed, 100u);
}

}  // namespace
