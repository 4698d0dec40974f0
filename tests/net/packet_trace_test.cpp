#include "net/packet_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "analysis/run_artifacts.hpp"
#include "core/runner.hpp"

namespace ldke::net {
namespace {

core::RunnerConfig setup_config() {
  core::RunnerConfig cfg;
  cfg.node_count = 120;
  cfg.density = 10.0;
  cfg.side_m = 250.0;
  cfg.seed = 3;
  return cfg;
}

std::string trace_jsonl(core::ProtocolRunner& runner,
                        const PacketTrace& trace) {
  std::ostringstream os;
  analysis::TraceArtifacts artifacts;
  artifacts.packets = &trace;
  analysis::write_trace_jsonl(os, runner, "test", artifacts);
  return os.str();
}

TEST(PacketTrace, RecordsSetupTraffic) {
  core::ProtocolRunner runner{setup_config()};
  PacketTrace trace;
  runner.network().set_packet_trace(&trace);
  runner.run_key_setup();

  // One link advert per node plus one HELLO per head.
  EXPECT_EQ(trace.total_seen(), runner.network().channel().transmissions());
  EXPECT_EQ(trace.total_dropped(), 0u);
  const auto records = trace.merged();
  const auto count_of = [&](PacketKind kind) {
    return static_cast<std::uint64_t>(
        std::count_if(records.begin(), records.end(),
                      [kind](const TraceRecord& r) { return r.kind == kind; }));
  };
  EXPECT_EQ(count_of(PacketKind::kLinkAdvert), runner.node_count());
  EXPECT_GT(count_of(PacketKind::kHello), 0u);
}

TEST(PacketTrace, TimesAreMonotonic) {
  core::RunnerConfig cfg;
  cfg.node_count = 80;
  cfg.density = 10.0;
  cfg.side_m = 200.0;
  cfg.seed = 9;
  core::ProtocolRunner runner{cfg};
  PacketTrace trace;
  runner.network().set_packet_trace(&trace);
  runner.run_key_setup();
  const auto records = trace.merged();
  ASSERT_FALSE(records.empty());
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].time_ns, records[i].time_ns);
  }
}

TEST(PacketTrace, BoundedCapacityEvictsOldest) {
  core::ProtocolRunner runner{setup_config()};
  PacketTrace trace{16};
  runner.network().set_packet_trace(&trace);
  runner.run_key_setup();
  EXPECT_LE(trace.total_recorded(), 16u);
  EXPECT_GT(trace.total_dropped(), 0u);
  // The retained tail is the most recent traffic.
  EXPECT_GT(trace.merged().back().time_ns, 0);
}

TEST(PacketTrace, JsonlDumpIsWellFormedLines) {
  core::RunnerConfig cfg;
  cfg.node_count = 60;
  cfg.density = 8.0;
  cfg.side_m = 200.0;
  cfg.seed = 4;
  core::ProtocolRunner runner{cfg};
  PacketTrace trace;
  runner.network().set_packet_trace(&trace);
  runner.run_key_setup();

  const std::string dump = trace_jsonl(runner, trace);
  std::size_t packet_lines = 0;
  std::istringstream in{dump};
  std::string line;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"type\":\"pkt\"") != std::string::npos) ++packet_lines;
  }
  EXPECT_EQ(packet_lines, trace.total_recorded());
  EXPECT_NE(dump.find("\"kind\":\"hello\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"link_advert\""), std::string::npos);
}

TEST(PacketTrace, DroppedRecordsCountsEvictionsExactly) {
  core::ProtocolRunner runner{setup_config()};
  PacketTrace trace{16};
  runner.network().set_packet_trace(&trace);
  runner.run_key_setup();
  EXPECT_GT(trace.total_dropped(), 0u);
  // Everything seen is either retained or accounted as dropped.
  EXPECT_EQ(trace.total_seen(), trace.total_recorded() + trace.total_dropped());
}

TEST(PacketTrace, DumpReportsDropsOnlyWhenIncomplete) {
  {  // Complete trace: no trace_drops line.
    core::ProtocolRunner runner{setup_config()};
    PacketTrace trace;
    runner.network().set_packet_trace(&trace);
    runner.run_key_setup();
    EXPECT_EQ(trace_jsonl(runner, trace).find("trace_drops"),
              std::string::npos);
  }
  {  // Overflowing trace: a final record reports the packet family's gap.
    core::ProtocolRunner runner{setup_config()};
    PacketTrace trace{16};
    runner.network().set_packet_trace(&trace);
    runner.run_key_setup();
    const std::string dump = trace_jsonl(runner, trace);
    const auto pos = dump.find("\"type\":\"trace_drops\",\"family\":\"pkt\"");
    ASSERT_NE(pos, std::string::npos);
    EXPECT_NE(dump.find("\"seen\":" + std::to_string(trace.total_seen())),
              std::string::npos);
    EXPECT_NE(dump.find("\"dropped\":" +
                        std::to_string(trace.total_dropped())),
              std::string::npos);
    // The drops record is the last line.
    EXPECT_GT(pos, dump.rfind("\"kind\":"));
    EXPECT_EQ(dump.find('\n', pos), dump.size() - 1);
  }
}

TEST(PacketTrace, ClearResets) {
  core::ProtocolRunner runner{setup_config()};
  PacketTrace trace{16};
  runner.network().set_packet_trace(&trace);
  runner.run_key_setup();
  ASSERT_GT(trace.total_dropped(), 0u);
  trace.clear();
  EXPECT_EQ(trace.total_recorded(), 0u);
  EXPECT_EQ(trace.total_seen(), 0u);
  EXPECT_EQ(trace.total_dropped(), 0u);
}

TEST(PacketKindName, AllKindsNamed) {
  EXPECT_EQ(packet_kind_name(PacketKind::kData), "data");
  EXPECT_EQ(packet_kind_name(PacketKind::kKeyDisclosure), "key_disclosure");
  EXPECT_EQ(packet_kind_name(static_cast<PacketKind>(250)), "unknown");
}

}  // namespace
}  // namespace ldke::net
