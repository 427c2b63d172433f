// Histogram edge cases and serialization round trips (satellite of the live
// telemetry PR): empty/single-observation percentiles, exact bucket-edge
// placement, the overflow bucket, batched observation, the
// first-registration-wins contract for
// mismatched bucket layouts, and a full lore.metrics.v1 JSON round trip.
#include <gtest/gtest.h>

#include <vector>

#include "src/obs/obs.hpp"

namespace {

using namespace lore::obs;

TEST(HistogramEdge, EmptyHistogramIsAllZeros) {
  Histogram h(Histogram::linear_bounds(0.0, 10.0, 6));
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 0.0);
}

TEST(HistogramEdge, SingleObservationPinsEveryPercentile) {
  Histogram h(Histogram::linear_bounds(0.0, 10.0, 6));
  h.observe(3.7);
  // Interpolation is clamped to the observed [min, max], so one sample
  // answers every quantile exactly.
  for (double q : {0.0, 0.25, 0.5, 0.95, 1.0})
    EXPECT_DOUBLE_EQ(h.percentile(q), 3.7) << "q=" << q;
  EXPECT_DOUBLE_EQ(h.min(), 3.7);
  EXPECT_DOUBLE_EQ(h.max(), 3.7);
  EXPECT_DOUBLE_EQ(h.mean(), 3.7);
}

TEST(HistogramEdge, ExactBucketEdgeLandsInTheLowerBucket) {
  // Upper edges are inclusive: observe(2.0) with edges {1,2,3} belongs to
  // the bucket whose upper bound is 2.
  Histogram h(std::vector<double>{1.0, 2.0, 3.0});
  h.observe(2.0);
  const auto counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);  // 3 finite + overflow
  EXPECT_EQ(counts[0], 0u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 0u);
  h.observe(1.0);  // exactly the first edge
  EXPECT_EQ(h.bucket_counts()[0], 1u);
}

TEST(HistogramEdge, OverflowBucketCatchesEverythingAboveTheLastEdge) {
  Histogram h(std::vector<double>{1.0, 2.0, 3.0});
  h.observe(1e9);
  h.observe(4.0);
  const auto counts = h.bucket_counts();
  EXPECT_EQ(counts[3], 2u);
  // The open-ended bucket interpolates across [last_edge, observed max], so
  // quantiles stay finite and q=1 recovers the true maximum.
  EXPECT_GE(h.percentile(0.99), 3.0);
  EXPECT_LE(h.percentile(0.99), 1e9);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1e9);
  EXPECT_DOUBLE_EQ(h.max(), 1e9);
}

TEST(HistogramEdge, ObserveAllEqualsOneObservePerValue) {
  // Values on both sides of every edge, exactly on edges, and in overflow.
  const std::vector<double> xs = {0.5, 1.0, 1.5, 2.0, 2.0, 2.5, 3.0, 7.0, -1.0, 0.25};
  Histogram one_by_one(std::vector<double>{1.0, 2.0, 3.0});
  Histogram batched(std::vector<double>{1.0, 2.0, 3.0});
  for (const double x : xs) one_by_one.observe(x);
  batched.observe_all(xs);
  batched.observe_all({});  // an empty batch changes nothing
  EXPECT_EQ(batched.count(), one_by_one.count());
  EXPECT_EQ(batched.bucket_counts(), one_by_one.bucket_counts());
  EXPECT_DOUBLE_EQ(batched.sum(), one_by_one.sum());
  EXPECT_DOUBLE_EQ(batched.min(), -1.0);
  EXPECT_DOUBLE_EQ(batched.max(), 7.0);
}

TEST(HistogramEdge, ResetRestoresTheEmptyState) {
  Histogram h(std::vector<double>{1.0, 2.0});
  h.observe(0.5);
  h.observe(50.0);
  h.reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
  for (auto c : h.bucket_counts()) EXPECT_EQ(c, 0u);
}

TEST(HistogramEdge, ReRegistrationKeepsTheFirstLayout) {
  MetricsRegistry reg;
  auto& first = reg.histogram("dual", std::vector<double>{1.0, 2.0, 3.0});
  // Same name, different layout: first registration wins (and a one-shot
  // stderr warning fires — behaviorally we pin identity + layout).
  auto& second = reg.histogram("dual", std::vector<double>{10.0, 20.0});
  EXPECT_EQ(&first, &second);
  EXPECT_EQ(second.upper_bounds(), (std::vector<double>{1.0, 2.0, 3.0}));
  // Same-layout and layout-less re-registrations are the supported pattern.
  auto& third = reg.histogram("dual", std::vector<double>{1.0, 2.0, 3.0});
  auto& fourth = reg.histogram("dual");
  EXPECT_EQ(&first, &third);
  EXPECT_EQ(&first, &fourth);
}

TEST(MetricsJson, RoundTripPreservesEveryInstrument) {
  MetricsRegistry reg;
  reg.counter("edge.requests").add(123456789ULL);
  reg.counter("edge.zero");  // registered but never incremented
  reg.gauge("edge.ratio").set(0.015625);  // exactly representable
  auto& h = reg.histogram("edge.lat", std::vector<double>{1.0, 2.0, 4.0});
  h.observe(0.5);
  h.observe(2.0);
  h.observe(8.0);

  const Snapshot before = reg.snapshot();
  const Snapshot after = snapshot_from_json(Json::parse(metrics_to_json(before).dump(2)));

  ASSERT_EQ(after.counters.size(), before.counters.size());
  for (std::size_t i = 0; i < before.counters.size(); ++i) {
    EXPECT_EQ(after.counters[i].first, before.counters[i].first);
    EXPECT_EQ(after.counters[i].second, before.counters[i].second);
  }
  ASSERT_EQ(after.gauges.size(), before.gauges.size());
  for (std::size_t i = 0; i < before.gauges.size(); ++i)
    EXPECT_DOUBLE_EQ(after.gauges[i].second, before.gauges[i].second);
  ASSERT_EQ(after.histograms.size(), 1u);
  const auto& hb = before.histograms[0];
  const auto& ha = after.histograms[0];
  EXPECT_EQ(ha.name, hb.name);
  EXPECT_EQ(ha.count, hb.count);
  EXPECT_DOUBLE_EQ(ha.sum, hb.sum);
  EXPECT_DOUBLE_EQ(ha.min, hb.min);
  EXPECT_DOUBLE_EQ(ha.max, hb.max);
  EXPECT_DOUBLE_EQ(ha.p50, hb.p50);
  EXPECT_DOUBLE_EQ(ha.p95, hb.p95);
  EXPECT_DOUBLE_EQ(ha.p99, hb.p99);
  EXPECT_EQ(ha.upper_bounds, hb.upper_bounds);
  EXPECT_EQ(ha.buckets, hb.buckets);
}

TEST(MetricsJson, WrongSchemaTagIsRejected) {
  Json doc = Json::object();
  doc["schema"] = "lore.metrics.v2";
  EXPECT_THROW(snapshot_from_json(doc), std::runtime_error);
  EXPECT_THROW(snapshot_from_json(Json::object()), std::runtime_error);
}

TEST(MetricsJson, PrometheusBucketsAreCumulative) {
  MetricsRegistry reg;
  auto& h = reg.histogram("cum", std::vector<double>{1.0, 2.0});
  h.observe(0.5);
  h.observe(0.7);
  h.observe(1.5);
  h.observe(9.0);
  const std::string text = prometheus_text(reg.snapshot());
  EXPECT_NE(text.find("lore_cum_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lore_cum_bucket{le=\"2\"} 3\n"), std::string::npos);
  EXPECT_NE(text.find("lore_cum_bucket{le=\"+Inf\"} 4\n"), std::string::npos);
  EXPECT_NE(text.find("lore_cum_count 4\n"), std::string::npos);
}

}  // namespace
