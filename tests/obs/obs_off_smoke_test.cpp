// Smoke test that must pass in BOTH builds: the default one and the
// `obs-off` preset (-DLORE_OBS=OFF -> LORE_OBS_DISABLED). It pins the
// compile-out contract of the live pipeline: Pipeline::start succeeds exactly
// when the subsystem is compiled in, campaigns still run (with events and
// metrics macros reduced to nothing), and the always-compiled pieces (JSON,
// schema stubs) behave identically.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>

#include "src/common/campaign.hpp"
#include "src/obs/obs.hpp"

namespace {

using namespace lore::obs;

TEST(ObsOffSmoke, PipelineStartMatchesCompileTimeSwitch) {
  Pipeline pipeline;
  PipelineConfig cfg;
  cfg.port = 0;  // ephemeral
  cfg.aggregator.interval = std::chrono::milliseconds(0);
  EXPECT_EQ(pipeline.start(cfg), kCompiledIn);
  EXPECT_EQ(pipeline.running(), kCompiledIn);
  if (kCompiledIn) {
    ASSERT_NE(pipeline.server(), nullptr);
    EXPECT_NE(pipeline.server()->port(), 0);
  }
  pipeline.stop();
  EXPECT_FALSE(pipeline.running());
}

TEST(ObsOffSmoke, CampaignRunsRegardlessOfBuild) {
  lore::CampaignSpec spec;
  spec.trials = 32;
  spec.base_seed = 9;
  spec.threads = 2;
  const auto result = lore::run_campaign<int>(
      spec, [](std::size_t i, lore::Rng&, const lore::CancelToken&) {
        LORE_OBS_COUNT("smoke.bodies", 1);
        LORE_OBS_EVENT(EventKind::kTrialCompleted, i, 0.0);
        return static_cast<int>(i * 2);
      });
  ASSERT_TRUE(result.report.complete());
  for (std::size_t i = 0; i < spec.trials; ++i)
    EXPECT_EQ(result.records[i], static_cast<int>(i * 2));
}

TEST(ObsOffSmoke, IntervalsSchemaIsStableInBothBuilds) {
  AggregatorConfig cfg;
  cfg.interval = std::chrono::milliseconds(0);
  Aggregator agg(cfg);
  const Json doc = agg.intervals_json();
  EXPECT_EQ(doc.at("schema").as_string(), "lore.intervals.v1");
  EXPECT_EQ(doc.at("intervals").size(), 0u);  // nothing ticked yet
}

TEST(ObsOffSmoke, EnvPipelineRespectsCompileSwitch) {
  ::setenv("LORE_SERVE", "0", 1);
  const bool started = start_pipeline_from_env();
  EXPECT_EQ(started, kCompiledIn);
  if (started) Pipeline::global().stop();
  ::unsetenv("LORE_SERVE");
}

}  // namespace
