#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <string>

namespace ldke::obs {
namespace {

// The counter table itself is covered by the TraceCounters suite
// (tests/obs/counters_test.cpp); here we pin the snapshot's bytes.

TEST(MetricRegistry, SnapshotIncludesAllFamilies) {
  MetricRegistry reg;
  reg.increment(Counter::kDataHopTx, 3);
  reg.increment(Counter::kChannelTx, 12);
  reg.set_gauge("kernel.lanes", 4.0);
  reg.set_gauge("kernel.lane_skew", 0.0);
  // Non-zero counters in name order, then non-zero gauges; the histogram
  // family is always empty.
  EXPECT_EQ(reg.snapshot_json().dump(),
            "{\"counters\":{\"channel.tx\":12,\"data.hop_tx\":3},"
            "\"gauges\":{\"kernel.lanes\":4},\"histograms\":{}}");
}

TEST(MetricRegistry, SnapshotKeepsStableSchemaWhenFamiliesAreEmpty) {
  // The three family keys are always present (consumers key off them);
  // families without signal serialize as empty objects.
  EXPECT_EQ(MetricRegistry{}.snapshot_json().dump(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}");
}

}  // namespace
}  // namespace ldke::obs
