#include "obs/delivery.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ldke::obs {
namespace {

TEST(DeliveryTracker, TimesEachDeliveryFromItsOwnReading) {
  DeliveryTracker t;
  t.on_originate(7, 1, 100);  // lost on the way
  t.on_originate(7, 2, 200);
  t.on_originate(9, 1, 150);
  t.on_deliver(7, 2, 1100);  // timed from 200, not from the lost 100
  t.on_deliver(9, 1, 1150);
  ASSERT_EQ(t.samples().size(), 2u);
  EXPECT_EQ(t.samples()[0].source, 7u);
  EXPECT_EQ(t.samples()[0].t_tx_ns, 200);
  EXPECT_EQ(t.samples()[0].t_rx_ns, 1100);
  EXPECT_EQ(t.samples()[1].source, 9u);
  EXPECT_EQ(t.samples()[1].t_tx_ns, 150);
  EXPECT_EQ(t.originated(), 3u);
  EXPECT_EQ(t.delivered(), 2u);
  EXPECT_EQ(t.unmatched(), 0u);
}

TEST(DeliveryTracker, UnmatchedDeliveriesAreCounted) {
  DeliveryTracker t;
  t.on_deliver(3, 1, 500);  // never originated
  t.on_originate(4, 1, 0);
  t.on_deliver(4, 2, 50);   // a sequence the source never sent
  t.on_deliver(4, 1, 100);
  t.on_deliver(4, 1, 200);  // duplicate: already delivered
  EXPECT_EQ(t.delivered(), 1u);
  EXPECT_EQ(t.unmatched(), 3u);
}

TEST(DeliveryTracker, LatencyPercentilesAreExact) {
  DeliveryTracker t;
  for (int i = 1; i <= 100; ++i) {
    t.on_originate(1, i, 0);
    t.on_deliver(1, i, i * 1000000);  // 1..100 ms
  }
  EXPECT_NEAR(t.latency_percentile_s(0.5), 0.050, 0.002);
  EXPECT_NEAR(t.latency_percentile_s(0.99), 0.099, 0.002);
  EXPECT_DOUBLE_EQ(t.latency_percentile_s(1.0), 0.100);
  EXPECT_DOUBLE_EQ(t.latency_percentile_s(0.0), 0.001);
}

TEST(DeliveryTracker, EmptyTrackerIsSafe) {
  DeliveryTracker t;
  EXPECT_DOUBLE_EQ(t.latency_percentile_s(0.5), 0.0);
  const std::string json = t.to_json().dump();
  EXPECT_NE(json.find("\"originated\":0"), std::string::npos);
}

TEST(DeliveryTracker, ClearResetsEverything) {
  DeliveryTracker t;
  t.on_originate(1, 1, 0);
  t.on_originate(1, 2, 5);
  t.on_deliver(1, 1, 10);
  t.on_deliver(1, 1, 20);
  t.clear();
  EXPECT_EQ(t.originated(), 0u);
  EXPECT_EQ(t.delivered(), 0u);
  EXPECT_EQ(t.unmatched(), 0u);
  // Pre-clear originations must not satisfy post-clear deliveries.
  t.on_deliver(1, 2, 30);
  EXPECT_EQ(t.unmatched(), 1u);
}

TEST(DeliveryTracker, JsonReportsMillisecondPercentiles) {
  DeliveryTracker t;
  t.on_originate(2, 1, 0);
  t.on_deliver(2, 1, 250000000);  // 250 ms
  const std::string json = t.to_json().dump();
  EXPECT_NE(json.find("\"delivered\":1"), std::string::npos);
  EXPECT_NE(json.find("\"p50_ms\":250"), std::string::npos);
  EXPECT_NE(json.find("\"max_ms\":250"), std::string::npos);
}

}  // namespace
}  // namespace ldke::obs
