#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace ldke::obs {
namespace {

// The registry's counter table.  The suite keeps the name of the
// counters-only class that MetricRegistry absorbed.

TEST(TraceCounters, IncrementAccumulates) {
  MetricRegistry c;
  c.increment(Counter::kChannelTx);
  c.increment(Counter::kChannelTx);
  c.increment(Counter::kChannelTx, 3);
  EXPECT_EQ(c.value(Counter::kChannelTx), 5u);
  EXPECT_EQ(c.value("channel.tx"), 5u);
}

TEST(TraceCounters, CountersAreIndependent) {
  MetricRegistry c;
  c.increment(Counter::kDataHopTx);
  c.increment(Counter::kDataOriginated, 2);
  EXPECT_EQ(c.value(Counter::kDataHopTx), 1u);
  EXPECT_EQ(c.value(Counter::kDataOriginated), 2u);
  EXPECT_EQ(c.value(Counter::kDataPeekOk), 0u);
}

TEST(TraceCounters, ValueReadsEveryListedName) {
  MetricRegistry c;
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    c.increment(static_cast<Counter>(i), i + 1);
  }
  for (std::size_t i = 0; i < kCounterCount; ++i) {
    EXPECT_EQ(c.value(kCounterNames[i]), i + 1) << kCounterNames[i];
  }
}

TEST(TraceCounters, UnlistedNameThrows) {
  const MetricRegistry c;
  EXPECT_THROW((void)c.value("channel.txx"), std::out_of_range);
  EXPECT_THROW((void)c.value(""), std::out_of_range);
  EXPECT_THROW((void)c.value("zzz.after_the_last_name"), std::out_of_range);
}

TEST(TraceCounters, AllListsEveryCounterByNameWithZeros) {
  MetricRegistry c;
  c.increment(Counter::kRevokeEvicted, 4);
  const auto all = c.all();
  ASSERT_EQ(all.size(), kCounterCount);
  std::size_t i = 0;
  for (const auto& [name, value] : all) {
    EXPECT_EQ(name, kCounterNames[i++]);
    EXPECT_EQ(value, name == "revoke.evicted" ? 4u : 0u) << name;
  }
}

TEST(TraceCounters, MergeAddsThenZeroesTheSource) {
  MetricRegistry main;
  MetricRegistry lane;
  main.increment(Counter::kChannelDelivered, 2);
  lane.increment(Counter::kChannelDelivered, 5);
  lane.increment(Counter::kSetupJoined);
  main.merge_from(lane);
  EXPECT_EQ(main.value(Counter::kChannelDelivered), 7u);
  EXPECT_EQ(main.value(Counter::kSetupJoined), 1u);
  EXPECT_EQ(lane.snapshot_json().dump(),
            MetricRegistry{}.snapshot_json().dump());
  main.merge_from(lane);  // a second fold adds nothing
  EXPECT_EQ(main.value(Counter::kChannelDelivered), 7u);
  EXPECT_EQ(main.value(Counter::kSetupJoined), 1u);
}

}  // namespace
}  // namespace ldke::obs
