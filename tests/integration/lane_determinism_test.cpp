/// The sharded kernel's headline guarantee, regression-tested: running
/// the same seed at lanes = 1, 2 and 8 produces bit-identical setup
/// metrics (keys/node, messages/node, cluster distribution), identical
/// channel delivery counts, identical energy totals (doubles compared
/// exactly — the id-order summation makes them reproducible) and
/// identical counters.  The
/// scheduler's event count is the one figure that legitimately varies
/// with the lane count: the channel coalesces a transmission's
/// deliveries into one event per destination lane.

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/run_artifacts.hpp"
#include "core/metrics.hpp"
#include "core/runner.hpp"
#include "net/packet_trace.hpp"
#include "obs/audit.hpp"

namespace ldke {
namespace {

struct TrialResult {
  core::SetupMetrics setup;
  std::uint64_t transmissions = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t events_executed = 0;
  double energy_total_j = 0.0;
  double energy_tx_j = 0.0;
  double energy_rx_j = 0.0;
  crypto::CryptoCounters crypto;
  std::map<std::string, std::uint64_t> counters;
};

TrialResult run_trial(std::size_t lanes, std::uint64_t seed) {
  core::RunnerConfig cfg;
  cfg.node_count = 1500;
  cfg.density = 10.0;
  cfg.seed = seed;
  cfg.kernel.lanes = lanes;
  core::ProtocolRunner runner{cfg};
  runner.run_key_setup();

  TrialResult r;
  r.setup = core::collect_setup_metrics(runner);
  net::Channel& ch = runner.network().channel();
  r.transmissions = ch.transmissions();
  r.deliveries = ch.deliveries();
  r.bytes_sent = ch.bytes_sent();
  r.events_executed = runner.sim().events_executed();
  net::EnergyModel& energy = runner.network().energy();
  r.energy_total_j = energy.total_j();
  r.energy_tx_j = energy.tx_j();
  r.energy_rx_j = energy.rx_j();
  r.crypto = runner.crypto_totals();
  for (const auto& [name, value] : runner.network().counters().all()) {
    if (value != 0) r.counters.emplace(name, value);
  }
  return r;
}

void expect_identical(const TrialResult& a, const TrialResult& b,
                      std::size_t lanes) {
  SCOPED_TRACE("lanes=" + std::to_string(lanes));
  // Setup metrics: every double compared bit-exact, not approximately.
  EXPECT_EQ(a.setup.node_count, b.setup.node_count);
  EXPECT_EQ(a.setup.realized_density, b.setup.realized_density);
  EXPECT_EQ(a.setup.cluster_count, b.setup.cluster_count);
  EXPECT_EQ(a.setup.head_fraction, b.setup.head_fraction);
  EXPECT_EQ(a.setup.mean_cluster_size, b.setup.mean_cluster_size);
  EXPECT_EQ(a.setup.mean_keys_per_node, b.setup.mean_keys_per_node);
  EXPECT_EQ(a.setup.setup_messages_per_node, b.setup.setup_messages_per_node);
  EXPECT_EQ(a.setup.singleton_clusters, b.setup.singleton_clusters);
  EXPECT_EQ(a.setup.undecided_nodes, b.setup.undecided_nodes);
  EXPECT_EQ(a.setup.setup_span_s, b.setup.setup_span_s);
  EXPECT_EQ(a.setup.cluster_sizes.fractions(), b.setup.cluster_sizes.fractions());

  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.bytes_sent, b.bytes_sent);

  EXPECT_EQ(a.energy_total_j, b.energy_total_j);
  EXPECT_EQ(a.energy_tx_j, b.energy_tx_j);
  EXPECT_EQ(a.energy_rx_j, b.energy_rx_j);

  EXPECT_EQ(a.crypto.seals, b.crypto.seals);
  EXPECT_EQ(a.crypto.opens, b.crypto.opens);
  EXPECT_EQ(a.crypto.open_failures, b.crypto.open_failures);
  EXPECT_EQ(a.crypto.prf_calls, b.crypto.prf_calls);
  EXPECT_EQ(a.crypto.sealed_bytes, b.crypto.sealed_bytes);
  EXPECT_EQ(a.crypto.opened_bytes, b.crypto.opened_bytes);

  EXPECT_EQ(a.counters, b.counters);
}

TEST(LaneDeterminism, SetupMetricsBitIdenticalAcrossLaneCounts) {
  const TrialResult serial = run_trial(1, 20260808);
  for (const std::size_t lanes : {2ul, 8ul}) {
    const TrialResult sharded = run_trial(lanes, 20260808);
    expect_identical(serial, sharded, lanes);
  }
}

/// Runs a traced key setup at the given lane count and serializes the
/// full JSONL trace, minus the counters snapshot line: that one line
/// carries the kernel.* lane-balance gauges (wall-clock figures that
/// legitimately vary with the lane count).  Everything else — packets,
/// audits, spans, drops — must merge to the identical byte stream.
std::string traced_setup(std::size_t lanes, std::uint64_t seed) {
  core::RunnerConfig cfg;
  cfg.node_count = 1500;
  cfg.density = 10.0;
  cfg.seed = seed;
  cfg.kernel.lanes = lanes;
  core::ProtocolRunner runner{cfg};
  net::PacketTrace trace{1 << 20};
  obs::AuditSink audit;
  runner.network().set_packet_trace(&trace);
  runner.network().set_audit_sink(&audit);
  runner.run_key_setup();

  std::ostringstream os;
  analysis::TraceArtifacts artifacts;
  artifacts.packets = &trace;
  artifacts.audit = &audit;
  analysis::write_trace_jsonl(os, runner, "lane_test", artifacts);

  std::string out;
  std::istringstream in{os.str()};
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"counters\"") != std::string::npos) continue;
    out += line;
    out += '\n';
  }
  return out;
}

TEST(LaneDeterminism, MergedTracesByteIdenticalAcrossLaneCounts) {
  const std::string serial = traced_setup(1, 20260808);
  // The trace must actually contain both new record families.
  EXPECT_NE(serial.find("\"type\":\"audit\""), std::string::npos);
  EXPECT_NE(serial.find("\"kind\":\"key_established\""), std::string::npos);
  for (const std::size_t lanes : {2ul, 8ul}) {
    SCOPED_TRACE("lanes=" + std::to_string(lanes));
    EXPECT_EQ(traced_setup(lanes, 20260808), serial);
  }
}

TEST(LaneDeterminism, RepeatShardedRunsAreIdentical) {
  const TrialResult first = run_trial(4, 7);
  const TrialResult second = run_trial(4, 7);
  expect_identical(first, second, 4);
  EXPECT_EQ(first.events_executed, second.events_executed);
}

TEST(LaneDeterminism, DifferentSeedsDiffer) {
  // Sanity check that the comparison has teeth.
  const TrialResult a = run_trial(2, 1);
  const TrialResult b = run_trial(2, 2);
  EXPECT_NE(a.transmissions, b.transmissions);
}

}  // namespace
}  // namespace ldke
