#include "obs/audit.hpp"

#include <gtest/gtest.h>

#include <array>
#include <string>

namespace ldke::obs {
namespace {

AuditEvent ev(std::int64_t t_ns, std::uint32_t actor, AuditKind kind,
              std::uint32_t subject = kAuditNoSubject,
              std::uint64_t arg = 0) {
  return AuditEvent{t_ns, actor, subject, arg, kind};
}

TEST(AuditKindNames, RoundTripEveryKind) {
  for (std::size_t i = 0; i < kAuditKindCount; ++i) {
    const auto kind = static_cast<AuditKind>(i);
    const std::string_view name = audit_kind_name(kind);
    EXPECT_FALSE(name.empty());
    const auto back = audit_kind_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(audit_kind_from_name("not_a_kind").has_value());
}

TEST(AuditSink, RecordsAndCountsByKind) {
  AuditSink sink;
  sink.record(0, ev(100, 1, AuditKind::kKeyEstablished));
  sink.record(0, ev(200, 2, AuditKind::kKeyEstablished));
  sink.record(0, ev(300, 1, AuditKind::kEvicted, 7));
  EXPECT_EQ(sink.total_seen(), 3u);
  EXPECT_EQ(sink.total_recorded(), 3u);
  EXPECT_EQ(sink.total_dropped(), 0u);
  std::array<std::uint64_t, kAuditKindCount> counts{};
  for (const AuditEvent& e : sink.merged()) {
    ++counts[static_cast<std::size_t>(e.kind)];
  }
  EXPECT_EQ(counts[static_cast<std::size_t>(AuditKind::kKeyEstablished)], 2u);
  EXPECT_EQ(counts[static_cast<std::size_t>(AuditKind::kEvicted)], 1u);
}

TEST(AuditSink, MergedIsSortedByTimeThenActor) {
  AuditSink sink;
  sink.enable_lanes(2);
  // Lane 1 holds earlier events than lane 0: the merge must interleave.
  sink.record(0, ev(300, 4, AuditKind::kRefreshApplied));
  sink.record(0, ev(500, 1, AuditKind::kSleep));
  sink.record(1, ev(100, 9, AuditKind::kKeyEstablished));
  sink.record(1, ev(300, 2, AuditKind::kRefreshApplied));
  const auto merged = sink.merged();
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].t_ns, 100);
  EXPECT_EQ(merged[1].t_ns, 300);
  EXPECT_EQ(merged[1].actor, 2u);  // (t, actor) order breaks the tie
  EXPECT_EQ(merged[2].actor, 4u);
  EXPECT_EQ(merged[3].t_ns, 500);
}

TEST(AuditSink, TinyCapacityEvictsOldestAndCountsDrops) {
  AuditSink sink{8};
  for (int i = 0; i < 100; ++i) {
    sink.record(0, ev(i, 1, AuditKind::kRefreshApplied));
  }
  EXPECT_EQ(sink.total_seen(), 100u);
  EXPECT_LE(sink.total_recorded(), 8u);
  EXPECT_EQ(sink.total_seen(), sink.total_recorded() + sink.total_dropped());
  // The retained tail is the most recent events.
  const auto merged = sink.merged();
  ASSERT_FALSE(merged.empty());
  EXPECT_EQ(merged.back().t_ns, 99);
}

TEST(AuditSink, ClearResetsEverything) {
  AuditSink sink{8};
  sink.enable_lanes(2);
  for (int i = 0; i < 20; ++i) {
    sink.record(i % 2, ev(i, 2, AuditKind::kWake));
  }
  sink.clear();
  EXPECT_EQ(sink.total_seen(), 0u);
  EXPECT_EQ(sink.total_recorded(), 0u);
  EXPECT_EQ(sink.total_dropped(), 0u);
  EXPECT_TRUE(sink.merged().empty());
  EXPECT_EQ(sink.lanes(), 2u);  // lane layout survives clear()
}

}  // namespace
}  // namespace ldke::obs
