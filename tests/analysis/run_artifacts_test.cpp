#include "analysis/run_artifacts.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "obs/trace_reader.hpp"

namespace ldke::analysis {
namespace {

core::RunnerConfig small_config() {
  core::RunnerConfig cfg;
  cfg.node_count = 80;
  cfg.density = 10.0;
  cfg.side_m = 200.0;
  cfg.seed = 11;
  return cfg;
}

TEST(RunSummary, CollectGathersAllSections) {
  core::ProtocolRunner runner{small_config()};
  runner.run_key_setup();
  const RunSummary summary = collect_run_summary(runner, "unit_test");

  EXPECT_EQ(summary.schema_version, 1);
  EXPECT_EQ(summary.tool, "unit_test");
  EXPECT_EQ(summary.config.node_count, 80u);
  EXPECT_EQ(summary.config.seed, 11u);
  EXPECT_EQ(summary.setup.node_count, 80u);
  EXPECT_GT(summary.setup.setup_messages_per_node, 0.0);
  EXPECT_GT(summary.sim.events_executed, 0u);
  EXPECT_GT(summary.sim.queue_high_water, 0u);
  EXPECT_GT(summary.sim.sim_time_s, 0.0);
  EXPECT_GT(summary.channel.transmissions, 0u);
  EXPECT_GT(summary.channel.bytes_sent, 0u);
  EXPECT_FALSE(summary.channel.by_kind.empty());
  EXPECT_GT(summary.crypto.prf_calls, 0u);
  EXPECT_GT(summary.crypto.seals, 0u);
  EXPECT_GT(summary.energy.total_j, 0.0);
  EXPECT_FALSE(summary.phases.empty());
  EXPECT_EQ(summary.phases.front().name, "key_setup");
}

TEST(RunSummary, JsonRoundTripPreservesEveryField) {
  core::ProtocolRunner runner{small_config()};
  runner.run_key_setup();
  const RunSummary original = collect_run_summary(runner, "unit_test");

  std::ostringstream os;
  write_run_summary(os, original);
  const auto doc = obs::JsonValue::parse(os.str());
  ASSERT_TRUE(doc.has_value());
  for (const char* key : {"config", "setup", "sim", "channel", "crypto",
                          "energy", "latency", "phases"}) {
    ASSERT_NE(doc->find(key), nullptr) << key;
  }
  const auto section = [&](std::string_view key) -> const obs::JsonValue& {
    return *doc->find(key);
  };
  const auto u64 = [](const obs::JsonValue& object, std::string_view key) {
    return static_cast<std::uint64_t>(object.int_at(key));
  };

  EXPECT_EQ(doc->int_at("schema_version"), original.schema_version);
  EXPECT_EQ(doc->string_at("tool"), original.tool);
  const obs::JsonValue& config = section("config");
  EXPECT_EQ(u64(config, "node_count"), original.config.node_count);
  EXPECT_DOUBLE_EQ(config.number_at("density"), original.config.density);
  EXPECT_DOUBLE_EQ(config.number_at("side_m"), original.config.side_m);
  EXPECT_EQ(u64(config, "seed"), original.config.seed);
  const obs::JsonValue& setup = section("setup");
  EXPECT_DOUBLE_EQ(setup.number_at("setup_messages_per_node"),
                   original.setup.setup_messages_per_node);
  EXPECT_DOUBLE_EQ(setup.number_at("mean_keys_per_node"),
                   original.setup.mean_keys_per_node);
  EXPECT_DOUBLE_EQ(setup.number_at("head_fraction"),
                   original.setup.head_fraction);
  EXPECT_EQ(u64(setup, "cluster_count"), original.setup.cluster_count);
  const obs::JsonValue& sim = section("sim");
  EXPECT_EQ(u64(sim, "events_executed"), original.sim.events_executed);
  EXPECT_EQ(u64(sim, "queue_high_water"), original.sim.queue_high_water);
  const obs::JsonValue& channel = section("channel");
  EXPECT_EQ(u64(channel, "transmissions"), original.channel.transmissions);
  EXPECT_EQ(u64(channel, "bytes_sent"), original.channel.bytes_sent);
  EXPECT_EQ(u64(channel, "collisions"), original.channel.collisions);
  const obs::JsonValue* by_kind = channel.find("by_kind");
  ASSERT_NE(by_kind, nullptr);
  ASSERT_EQ(by_kind->as_object().size(), original.channel.by_kind.size());
  for (std::size_t i = 0; i < original.channel.by_kind.size(); ++i) {
    const auto& [kind, entry] = by_kind->as_object()[i];
    EXPECT_EQ(kind, original.channel.by_kind[i].kind);
    EXPECT_EQ(u64(entry, "packets"), original.channel.by_kind[i].packets);
    EXPECT_EQ(u64(entry, "bytes"), original.channel.by_kind[i].bytes);
  }
  const obs::JsonValue& crypto = section("crypto");
  EXPECT_EQ(u64(crypto, "seals"), original.crypto.seals);
  EXPECT_EQ(u64(crypto, "opens"), original.crypto.opens);
  EXPECT_EQ(u64(crypto, "prf_calls"), original.crypto.prf_calls);
  EXPECT_EQ(u64(crypto, "macs"), original.crypto.macs);
  EXPECT_DOUBLE_EQ(section("energy").number_at("total_j"),
                   original.energy.total_j);
  EXPECT_EQ(u64(section("latency"), "originated"),
            original.latency.originated);
  const obs::JsonArray& phases = section("phases").as_array();
  ASSERT_EQ(phases.size(), original.phases.size());
  for (std::size_t i = 0; i < original.phases.size(); ++i) {
    EXPECT_EQ(phases[i].string_at("name"), original.phases[i].name);
    EXPECT_EQ(phases[i].int_at("t0"), original.phases[i].t0_ns);
    EXPECT_EQ(phases[i].int_at("t1"), original.phases[i].t1_ns);
    EXPECT_EQ(u64(phases[i], "depth"), original.phases[i].depth);
  }
}

TEST(RunSummary, Fig9KeyIsTheDocumentedContract) {
  // EXPERIMENTS.md maps Fig 9 to summary["setup"]["setup_messages_per_node"];
  // this pin breaks if the key is ever renamed.
  core::ProtocolRunner runner{small_config()};
  runner.run_key_setup();
  const obs::JsonValue json = to_json(collect_run_summary(runner, "t"));
  const obs::JsonValue* setup = json.find("setup");
  ASSERT_NE(setup, nullptr);
  const core::SetupMetrics metrics = core::collect_setup_metrics(runner);
  EXPECT_DOUBLE_EQ(setup->number_at("setup_messages_per_node"),
                   metrics.setup_messages_per_node);
  EXPECT_DOUBLE_EQ(setup->number_at("mean_keys_per_node"),
                   metrics.mean_keys_per_node);
  EXPECT_DOUBLE_EQ(setup->number_at("head_fraction"), metrics.head_fraction);
}

TEST(TraceJsonl, RoundTripReproducesFig9FromTraceAlone) {
  core::ProtocolRunner runner{small_config()};
  net::PacketTrace trace{1 << 18};
  runner.network().set_packet_trace(&trace);
  runner.run_key_setup();

  std::ostringstream os;
  TraceArtifacts artifacts;
  artifacts.packets = &trace;
  write_trace_jsonl(os, runner, "unit_test", artifacts);
  std::istringstream in{os.str()};
  const auto data = obs::load_trace(in);
  ASSERT_TRUE(data.has_value());
  EXPECT_EQ(data->skipped_lines, 0u);
  EXPECT_EQ(data->node_count(), 80);
  EXPECT_EQ(data->meta.string_at("tool"), "unit_test");

  // The paper's Fig 9 quantity must be recomputable from the trace and
  // agree exactly with the simulator-side metric.
  const core::SetupMetrics metrics = core::collect_setup_metrics(runner);
  EXPECT_DOUBLE_EQ(obs::setup_messages_per_node(*data),
                   metrics.setup_messages_per_node);

  // Every channel transmission shows up as a packet record.
  EXPECT_EQ(data->packets.size(),
            runner.network().channel().transmissions());
  EXPECT_EQ(data->trace_dropped, 0u);

  // Phase spans made it across, including the config-derived sub-windows.
  bool saw_setup = false, saw_election = false, saw_links = false;
  for (const auto& span : data->spans) {
    if (span.name == "key_setup") saw_setup = true;
    if (span.name == "election") saw_election = true;
    if (span.name == "link_establishment") saw_links = true;
  }
  EXPECT_TRUE(saw_setup);
  EXPECT_TRUE(saw_election);
  EXPECT_TRUE(saw_links);

  // The counters snapshot rode along.
  ASSERT_TRUE(data->counters.is_object());
  EXPECT_NE(data->counters.find("counters"), nullptr);
}

TEST(TraceJsonl, DeterministicAcrossIdenticalRuns) {
  const auto run_once = [] {
    core::ProtocolRunner runner{small_config()};
    net::PacketTrace trace;
    runner.network().set_packet_trace(&trace);
    runner.run_key_setup();
    std::ostringstream os;
    TraceArtifacts artifacts;
    artifacts.packets = &trace;
    write_trace_jsonl(os, runner, "unit_test", artifacts);
    return os.str();
  };
  // Same seed, same artifact — byte for byte (golden property; the smoke
  // test in tools/ exercises the CLI on top of this).
  EXPECT_EQ(run_once(), run_once());
}

/// A bounded audit log that overflows says so in the trace: one "audit"
/// drops record whose counts add up, and exactly as many audit lines as
/// it says it recorded.
TEST(TraceJsonl, AuditLogDropsAreReported) {
  const auto traced = [](std::size_t capacity, std::uint64_t& seen) {
    core::ProtocolRunner runner{small_config()};
    obs::AuditSink audit{capacity};
    runner.network().set_audit_sink(&audit);
    runner.run_key_setup();
    seen = audit.total_seen();
    std::ostringstream os;
    TraceArtifacts artifacts;
    artifacts.audit = &audit;
    write_trace_jsonl(os, runner, "unit_test", artifacts);
    return os.str();
  };
  std::uint64_t events = 0;
  EXPECT_EQ(traced(1 << 20, events).find("trace_drops"), std::string::npos);
  ASSERT_GT(events, 64u);

  std::uint64_t bounded_seen = 0;
  std::istringstream in{traced(64, bounded_seen)};
  std::uint64_t audit_lines = 0;
  std::vector<obs::JsonValue> drops;
  std::string line;
  while (std::getline(in, line)) {
    const auto record = obs::JsonValue::parse(line);
    ASSERT_TRUE(record.has_value());
    const std::string type = record->string_at("type");
    if (type == "audit") ++audit_lines;
    if (type == "trace_drops") drops.push_back(*record);
  }
  ASSERT_EQ(drops.size(), 1u);
  const obs::JsonValue& d = drops.front();
  const auto seen = static_cast<std::uint64_t>(d.int_at("seen"));
  const auto recorded = static_cast<std::uint64_t>(d.int_at("recorded"));
  const auto dropped = static_cast<std::uint64_t>(d.int_at("dropped"));
  EXPECT_EQ(d.string_at("family"), "audit");
  EXPECT_EQ(seen, events);
  EXPECT_EQ(bounded_seen, events);
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(recorded + dropped, seen);
  EXPECT_EQ(audit_lines, recorded);
}

TEST(TraceJsonl, WithoutPacketTraceStillHasMetaSpansCounters) {
  core::ProtocolRunner runner{small_config()};
  runner.run_key_setup();
  std::ostringstream os;
  write_trace_jsonl(os, runner, "unit_test");  // no packet trace attached
  std::istringstream in{os.str()};
  const auto data = obs::load_trace(in);
  ASSERT_TRUE(data.has_value());
  EXPECT_TRUE(data->packets.empty());
  EXPECT_FALSE(data->spans.empty());
  ASSERT_TRUE(data->counters.is_object());
}

}  // namespace
}  // namespace ldke::analysis
