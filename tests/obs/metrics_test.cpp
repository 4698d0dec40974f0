#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ldke::obs {
namespace {

// Counter handle/name equivalence is pinned by the TraceCounters suite
// (tests/obs/counters_test.cpp); here we cover the gauge and histogram
// families.

TEST(MetricRegistry, GaugeHandleAndNameShareSlot) {
  MetricRegistry reg;
  MetricRegistry::GaugeHandle h = reg.gauge_handle("queue.depth");
  reg.set_gauge(h, 4.0);
  EXPECT_DOUBLE_EQ(reg.gauge("queue.depth"), 4.0);
  reg.set_gauge("queue.depth", 9.5);
  EXPECT_DOUBLE_EQ(reg.gauge("queue.depth"), 9.5);
}

TEST(MetricRegistry, GaugeHandleSurvivesClear) {
  MetricRegistry reg;
  MetricRegistry::GaugeHandle h = reg.gauge_handle("g");
  reg.set_gauge(h, 2.0);
  reg.clear();
  EXPECT_DOUBLE_EQ(reg.gauge("g"), 0.0);
  reg.set_gauge(h, 3.0);
  EXPECT_DOUBLE_EQ(reg.gauge("g"), 3.0);
}

TEST(MetricRegistry, DefaultGaugeAndHistogramHandlesAreInert) {
  MetricRegistry reg;
  reg.set_gauge(MetricRegistry::GaugeHandle{}, 1.0);
  reg.observe(MetricRegistry::HistogramHandle{}, 1.0);
  EXPECT_TRUE(reg.gauges().empty());
  EXPECT_TRUE(reg.histograms().empty());
}

TEST(MetricRegistry, HistogramHandleAndNameShareSlot) {
  MetricRegistry reg;
  MetricRegistry::HistogramHandle h = reg.histogram_handle("lat");
  reg.observe(h, 1.0);
  reg.observe("lat", 3.0);
  const Histogram* hist = reg.histogram("lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 2u);
  EXPECT_DOUBLE_EQ(hist->sum(), 4.0);
}

TEST(MetricRegistry, HistogramHandleSurvivesClear) {
  MetricRegistry reg;
  MetricRegistry::HistogramHandle h = reg.histogram_handle("lat");
  reg.observe(h, 5.0);
  reg.clear();
  const Histogram* hist = reg.histogram("lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count(), 0u);
  reg.observe(h, 2.0);
  EXPECT_EQ(reg.histogram("lat")->count(), 1u);
}

TEST(MetricRegistry, UnknownHistogramIsNull) {
  MetricRegistry reg;
  EXPECT_EQ(reg.histogram("never"), nullptr);
}

TEST(MetricRegistry, SnapshotIncludesAllFamilies) {
  MetricRegistry reg;
  reg.increment("events", 12);
  reg.set_gauge("rate", 0.5);
  reg.observe("size", 64.0);
  const std::string json = reg.snapshot_json().dump();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"events\":12"), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"rate\":0.5"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"size\""), std::string::npos);
}

TEST(MetricRegistry, SnapshotKeepsStableSchemaWhenFamiliesAreEmpty) {
  // The three family keys are always present (consumers key off them);
  // families without signal serialize as empty objects.
  MetricRegistry reg;
  reg.increment("only.counter");
  const std::string json = reg.snapshot_json().dump();
  EXPECT_NE(json.find("\"gauges\":{}"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\":{}"), std::string::npos);
}

TEST(Histogram, EmptyHistogramIsZeroed) {
  Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 0.0);
}

TEST(Histogram, TracksExactExtremaAndMean) {
  Histogram h;
  h.observe(1.0);
  h.observe(2.0);
  h.observe(9.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), 9.0);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
}

TEST(Histogram, PercentileIsApproximatelyCorrect) {
  Histogram h;
  for (int i = 1; i <= 1000; ++i) h.observe(static_cast<double>(i));
  // Log-bucketed with 4 sub-buckets per octave: ~19% relative error max.
  const double p50 = h.percentile(0.5);
  EXPECT_GT(p50, 500.0 * 0.8);
  EXPECT_LT(p50, 500.0 * 1.25);
  const double p99 = h.percentile(0.99);
  EXPECT_GT(p99, 990.0 * 0.8);
  EXPECT_LE(p99, 1000.0);  // clamped to the observed max
  EXPECT_DOUBLE_EQ(h.percentile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 1000.0);
}

TEST(Histogram, JsonHasSummaryFields) {
  Histogram h;
  h.observe(2.0);
  const std::string json = h.to_json().dump();
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p50\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

}  // namespace
}  // namespace ldke::obs
