#include "obs/metrics.hpp"

#include <gtest/gtest.h>

namespace ldke::obs {
namespace {

// The registry's counter family.  The suite keeps the name of the
// counters-only class that MetricRegistry absorbed.

TEST(TraceCounters, UnknownCounterIsZero) {
  MetricRegistry c;
  EXPECT_EQ(c.value("nothing"), 0u);
}

TEST(TraceCounters, IncrementAccumulates) {
  MetricRegistry c;
  c.increment("tx");
  c.increment("tx");
  c.increment("tx", 3);
  EXPECT_EQ(c.value("tx"), 5u);
}

TEST(TraceCounters, CountersAreIndependent) {
  MetricRegistry c;
  c.increment("a");
  c.increment("b", 2);
  EXPECT_EQ(c.value("a"), 1u);
  EXPECT_EQ(c.value("b"), 2u);
}

TEST(TraceCounters, ClearResetsEverything) {
  MetricRegistry c;
  c.increment("x");
  c.clear();
  EXPECT_EQ(c.value("x"), 0u);
  EXPECT_TRUE(c.all().empty());
}

TEST(TraceCounters, HandleSharesSlotWithNamedCounter) {
  MetricRegistry c;
  MetricRegistry::Handle h = c.handle("channel.tx");
  c.increment(h);
  c.increment(h, 4);
  c.increment("channel.tx");  // name and handle address one slot
  EXPECT_EQ(c.value("channel.tx"), 6u);
}

TEST(TraceCounters, HandleSurvivesClear) {
  MetricRegistry c;
  MetricRegistry::Handle h = c.handle("hot");
  c.increment(h, 3);
  c.increment("cold");
  c.clear();
  // Plain counters are erased; the handle's slot is zeroed but stays
  // registered so outstanding handles keep working.
  EXPECT_EQ(c.value("cold"), 0u);
  EXPECT_EQ(c.value("hot"), 0u);
  c.increment(h, 2);
  EXPECT_EQ(c.value("hot"), 2u);
}

TEST(TraceCounters, DefaultHandleIsInert) {
  MetricRegistry c;
  MetricRegistry::Handle h;
  c.increment(h);  // must not crash, counts nothing
  EXPECT_TRUE(c.all().empty());
}

TEST(TraceCounters, ClearTwiceKeepsHandleSlotsAlive) {
  MetricRegistry c;
  MetricRegistry::Handle h = c.handle("hot");
  c.clear();
  c.clear();  // second clear must not erase (or dangle) the pinned slot
  c.increment(h, 7);
  EXPECT_EQ(c.value("hot"), 7u);
}

TEST(TraceCounters, HandleReresolvedAfterClearSharesSlot) {
  MetricRegistry c;
  MetricRegistry::Handle first = c.handle("hot");
  c.increment(first, 2);
  c.clear();
  MetricRegistry::Handle second = c.handle("hot");
  c.increment(first);
  c.increment(second);
  EXPECT_EQ(c.value("hot"), 2u);  // both handles address the same slot
}

TEST(TraceCounters, ClearZeroesPinnedSlotButKeepsItRegistered) {
  MetricRegistry c;
  (void)c.handle("pinned");
  c.increment("plain");
  c.clear();
  // The plain counter is gone; the pinned slot remains (zeroed) so the
  // outstanding handle stays valid.
  EXPECT_EQ(c.all().count("plain"), 0u);
  const auto it = c.all().find("pinned");
  ASSERT_NE(it, c.all().end());
  EXPECT_EQ(it->second, 0u);
}

TEST(TraceCounters, SnapshotOmitsUntouchedPinnedCounters) {
  MetricRegistry c;
  (void)c.handle("never_incremented");
  c.increment("active", 3);
  const std::string with_active = c.snapshot_json().dump();
  // A pinned-but-never-incremented counter must be invisible: the
  // snapshot reads the same as if the handle had never been created.
  EXPECT_EQ(with_active.find("never_incremented"), std::string::npos);
  EXPECT_NE(with_active.find("\"active\":3"), std::string::npos);
}

TEST(TraceCounters, SnapshotAfterClearMatchesPristineRegistry) {
  MetricRegistry used;
  MetricRegistry::Handle h = used.handle("hot");
  used.increment(h, 5);
  used.increment("cold", 2);
  used.clear();
  // After clear() the snapshot must be indistinguishable from a registry
  // that was never touched, even though the pinned slot still exists.
  EXPECT_EQ(used.snapshot_json().dump(),
            MetricRegistry{}.snapshot_json().dump());
}

TEST(TraceCounters, ToStringIsSortedByName) {
  MetricRegistry c;
  c.increment("zeta");
  c.increment("alpha", 2);
  EXPECT_EQ(c.to_string(), "alpha=2\nzeta=1\n");
}

}  // namespace
}  // namespace ldke::obs
