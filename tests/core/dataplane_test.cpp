#include "core/dataplane.hpp"

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/run_artifacts.hpp"
#include "core/base_station.hpp"
#include "crypto/sha256.hpp"
#include "net/packet_trace.hpp"
#include "obs/audit.hpp"
#include "sim/time.hpp"
#include "support/rng.hpp"
#include "test_helpers.hpp"

namespace ldke::core {
namespace {

using testing::after_routing;
using testing::small_config;

struct SniffedPacket {
  net::NodeId sender = net::kNoNode;
  net::PacketKind kind = net::PacketKind::kData;
  support::Bytes payload;
};

/// Records every frame the channel transmits, byte for byte.
std::shared_ptr<std::vector<SniffedPacket>> attach_sniffer(
    ProtocolRunner& runner) {
  auto trace = std::make_shared<std::vector<SniffedPacket>>();
  runner.network().channel().set_sniffer([trace](const net::Packet& pkt) {
    trace->push_back({pkt.sender, pkt.kind, pkt.payload.to_bytes()});
  });
  return trace;
}

DataPlaneConfig engine_config() {
  DataPlaneConfig cfg;
  cfg.duration_s = 2.0;
  cfg.tick_interval_s = 0.05;
  cfg.readings_per_tick = 24;
  cfg.reading_bytes = 20;
  // Exercise the control plane concurrently with traffic: one refresh
  // and one eviction land inside the window.
  cfg.refresh_interval_s = 0.9;
  cfg.evict_interval_s = 1.3;
  cfg.evict_batch = 1;
  return cfg;
}

/// Folds 64-bit words and length-prefixed byte strings into one SHA-256.
class Digest {
 public:
  void word(std::uint64_t v) {
    std::uint8_t le[8];
    for (int i = 0; i < 8; ++i) le[i] = static_cast<std::uint8_t>(v >> (8 * i));
    sha_.update(le);
  }
  void bytes(std::span<const std::uint8_t> b) {
    word(b.size());
    sha_.update(b);
  }
  [[nodiscard]] std::string hex() { return support::to_hex(sha_.finish()); }

 private:
  crypto::Sha256 sha_;
};

// Recorded on the deployment whose ids follow the Hilbert curve
// (net/topology.hpp): the labels decide each position's provisioned
// keys, its election back-off and the evicted cluster, so every value
// below is specific to that numbering.  The delivery samples the digests
// fold carry each delivery's own origination time: DeliveryTracker
// matches a delivery to its reading by source and sequence number.
constexpr const char* kRecordedAirDigest =
    "8c587f414f9e07a6d06999754f505ca35fd6d5aa8a01bd5ec77a1298c3b36a68";
constexpr std::size_t kRecordedFrames = 4092;
constexpr std::size_t kRecordedDeliveries = 593;
constexpr std::size_t kRecordedReadings = 593;

constexpr const char* kRecordedTraceDigest =
    "9abc3a9baa5b146d698813ef28ea8d5f107f3c9d8e8cf13315355dce3a73cc34";
constexpr std::size_t kRecordedPacketRecords = 4092;
constexpr std::size_t kRecordedAuditEvents = 328;
constexpr std::size_t kRecordedJsonlBytes = 343882;

void expect_recorded_stats(const DataPlaneStats& stats) {
  EXPECT_EQ(stats.ticks, 40u);
  EXPECT_EQ(stats.attempts, 953u);
  EXPECT_EQ(stats.originated, 945u);
  EXPECT_EQ(stats.refresh_rounds, 2u);
  EXPECT_EQ(stats.clusters_evicted, 1u);
  EXPECT_EQ(stats.sim_elapsed_s, 2.0);
}

TEST(DataPlane, FramesAndDeliveriesMatchTheRecordedOutput) {
  auto runner = after_routing(small_config(11));
  const auto frames = attach_sniffer(*runner);
  DataPlaneEngine engine{*runner, engine_config()};
  expect_recorded_stats(engine.run());

  // Every frame on the air, byte for byte and in order.
  Digest digest;
  for (const SniffedPacket& frame : *frames) {
    digest.word(frame.sender);
    digest.word(static_cast<std::uint64_t>(frame.kind));
    digest.bytes(frame.payload);
  }
  // The delivery metrics, sample for sample.
  const auto& samples = runner->deliveries().samples();
  for (const auto& sample : samples) {
    digest.word(sample.source);
    digest.word(static_cast<std::uint64_t>(sample.t_tx_ns));
    digest.word(static_cast<std::uint64_t>(sample.t_rx_ns));
  }
  // The readings the base station accepted.
  const auto& readings = runner->base_station()->readings();
  for (const Reading& reading : readings) {
    digest.word(reading.source);
    digest.bytes(reading.payload);
    digest.word(static_cast<std::uint64_t>(reading.received_at.ns()));
  }
  // The protocol counters along the hop path.
  for (const char* name :
       {"data.originated", "data.hop_tx", "data.peek_ok", "channel.tx",
        "channel.delivered", "envelope.auth_fail", "envelope.stale",
        "envelope.replay", "envelope.no_key", "revoke.evicted",
        "bs.reading_accepted"}) {
    digest.word(runner->network().counters().value(name));
  }
  // The simulator's RNG position (loss draws and node timers).
  digest.word(runner->sim().rng().uniform_u64(1u << 30));

  EXPECT_EQ(frames->size(), kRecordedFrames);
  EXPECT_EQ(samples.size(), kRecordedDeliveries);
  EXPECT_EQ(readings.size(), kRecordedReadings);
  EXPECT_EQ(digest.hex(), kRecordedAirDigest);

  // Every seal and every F lands on the node that made it: the engine
  // holds nothing, and the deployment totals hold every hop wrap and
  // every refresh round.
  const crypto::CryptoCounters& outside = engine.crypto_stats();
  EXPECT_EQ(outside.seals, 0u);
  EXPECT_EQ(outside.sealed_bytes, 0u);
  EXPECT_EQ(outside.prf_calls, 0u);
  const crypto::CryptoCounters totals = runner->crypto_totals();
  EXPECT_EQ(totals.seals, 5211u);
  EXPECT_EQ(totals.sealed_bytes, 241555u);
  EXPECT_EQ(totals.opens, 44534u);
  EXPECT_EQ(totals.opened_bytes, 2661050u);
  EXPECT_EQ(totals.open_failures, 1513u);
  EXPECT_EQ(totals.prf_calls, 5601u);
}

TEST(DataPlane, TracesMatchTheRecordedOutput) {
  auto runner = after_routing(small_config(11));
  net::PacketTrace trace{1 << 20};
  obs::AuditSink audit;
  runner->network().set_packet_trace(&trace);
  runner->network().set_audit_sink(&audit);
  DataPlaneEngine engine{*runner, engine_config()};
  expect_recorded_stats(engine.run());

  // The packet trace, record for record in canonical order.
  Digest digest;
  const auto records = trace.merged();
  for (const net::TraceRecord& r : records) {
    digest.word(static_cast<std::uint64_t>(r.time_ns));
    digest.word(r.sender);
    digest.word(static_cast<std::uint64_t>(r.kind));
    digest.word(r.size_bytes);
  }
  digest.word(trace.total_seen());
  // The audit stream: refresh rounds, refresh applications and evictions.
  const auto events = audit.merged();
  for (const obs::AuditEvent& e : events) {
    digest.word(static_cast<std::uint64_t>(e.t_ns));
    digest.word(e.actor);
    digest.word(e.subject);
    digest.word(e.arg);
    digest.word(static_cast<std::uint64_t>(e.kind));
  }
  // The serialized JSONL trace (meta, spans, packets, audits,
  // deliveries, health, counters), byte for byte.
  std::ostringstream jsonl;
  analysis::TraceArtifacts artifacts;
  artifacts.packets = &trace;
  artifacts.audit = &audit;
  analysis::write_trace_jsonl(jsonl, *runner, "test", artifacts);
  const std::string text = jsonl.str();
  digest.bytes(std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                         text.size()));

  EXPECT_EQ(records.size(), kRecordedPacketRecords);
  EXPECT_EQ(events.size(), kRecordedAuditEvents);
  EXPECT_EQ(text.size(), kRecordedJsonlBytes);
  EXPECT_EQ(digest.hex(), kRecordedTraceDigest);
}

TEST(DataPlane, EmitsRefreshAndEvictionAudits) {
  auto runner = after_routing(small_config(11));
  obs::AuditSink audit;
  runner->network().set_audit_sink(&audit);
  DataPlaneEngine engine{*runner, engine_config()};
  const DataPlaneStats stats = engine.run();
  ASSERT_GT(stats.refresh_rounds, 0u);
  ASSERT_GT(stats.clusters_evicted, 0u);

  std::array<std::uint64_t, obs::kAuditKindCount> counts{};
  for (const obs::AuditEvent& e : audit.merged()) {
    ++counts[static_cast<std::size_t>(e.kind)];
  }
  EXPECT_EQ(counts[static_cast<std::size_t>(obs::AuditKind::kRefreshRound)],
            stats.refresh_rounds);
  EXPECT_GT(
      counts[static_cast<std::size_t>(obs::AuditKind::kRefreshApplied)], 0u);
  EXPECT_EQ(
      counts[static_cast<std::size_t>(obs::AuditKind::kEvictionIssued)],
      stats.clusters_evicted);
  // Every revoked cluster's members saw the revocation and wiped keys.
  EXPECT_GT(counts[static_cast<std::size_t>(obs::AuditKind::kEvicted)], 0u);

  // Convergence invariant: after each eviction a refresh round follows
  // among the survivors (the refresh driver outlives the evict driver
  // in engine_config), except possibly at the trace tail.
  const auto events = audit.merged();
  std::int64_t last_evict_ns = -1, last_refresh_ns = -1;
  for (const auto& event : events) {
    if (event.kind == obs::AuditKind::kEvictionIssued) {
      last_evict_ns = event.t_ns;
    }
    if (event.kind == obs::AuditKind::kRefreshApplied) {
      last_refresh_ns = event.t_ns;
    }
  }
  ASSERT_GE(last_evict_ns, 0);
  EXPECT_GT(last_refresh_ns, last_evict_ns);
}

/// The deployment's positions in draw order, re-drawn the way the runner
/// draws them: placement is the first use of the stream Xoshiro256{seed}.
std::vector<net::Vec2> raw_draws(const RunnerConfig& cfg) {
  support::Xoshiro256 rng{cfg.seed};
  std::vector<net::Vec2> drawn;
  for (std::size_t i = 0; i < cfg.node_count; ++i) {
    const double x = rng.uniform(0.0, cfg.side_m);
    drawn.push_back({x, rng.uniform(0.0, cfg.side_m)});
  }
  return drawn;
}

/// The draw index of the node at \p pos (draws never coincide).
std::size_t draw_at(const std::vector<net::Vec2>& drawn, net::Vec2 pos) {
  for (std::size_t draw = 0; draw < drawn.size(); ++draw) {
    if (drawn[draw].x == pos.x && drawn[draw].y == pos.y) return draw;
  }
  ADD_FAILURE() << "no draw at (" << pos.x << ", " << pos.y << ")";
  return drawn.size();
}

TEST(DataPlane, SourcesTakeTurnsInDrawOrder) {
  const RunnerConfig cfg = small_config(11);
  auto runner = after_routing(cfg);
  const std::vector<net::Vec2> drawn = raw_draws(cfg);
  const net::Topology& topo = runner->network().topology();
  DataPlaneConfig dp;
  dp.duration_s = 10.0;
  dp.tick_interval_s = 0.25;
  dp.readings_per_tick = 10;
  // An origination goes on the air at its tick's instant; a forward
  // follows a reception, so it never lands on one.
  const std::int64_t t0 = runner->sim().now().ns();
  const std::int64_t tick_ns =
      sim::SimTime::from_seconds(dp.tick_interval_s).ns();
  std::vector<net::Vec2> sources;
  runner->network().channel().set_sniffer([&](const net::Packet& pkt) {
    if (pkt.kind == net::PacketKind::kData &&
        (runner->sim().now().ns() - t0) % tick_ns == 0) {
      sources.push_back(topo.position(pkt.sender));
    }
  });
  DataPlaneEngine engine{*runner, dp};
  const DataPlaneStats stats = engine.run();
  ASSERT_EQ(stats.originated, stats.attempts);  // every source had a route
  ASSERT_EQ(sources.size(), stats.originated);
  ASSERT_GT(sources.size(), 2 * drawn.size());
  // Draws 1, 2, ..., n-1, then around again; draw 0 is the base station.
  std::size_t turn = 0;
  for (const net::Vec2& pos : sources) {
    if (turn % drawn.size() == 0) ++turn;
    const net::Vec2 expected = drawn[turn++ % drawn.size()];
    ASSERT_EQ(pos.x, expected.x) << "source " << turn;
    ASSERT_EQ(pos.y, expected.y) << "source " << turn;
  }
}

TEST(DataPlane, EvictionsRotateInTheHeadsDrawOrder) {
  const RunnerConfig cfg = small_config(11);
  auto runner = after_routing(cfg);
  const std::vector<net::Vec2> drawn = raw_draws(cfg);
  const net::Topology& topo = runner->network().topology();
  // Every non-base cluster, by its head's draw index (a cluster id is its
  // head's id).
  std::vector<std::pair<std::size_t, ClusterId>> heads;
  for (const auto& node : runner->nodes()) {
    const ClusterId cid = node->cid();
    if (cid == kNoCluster || cid == runner->base_station()->cid()) continue;
    heads.emplace_back(draw_at(drawn, topo.position(cid)), cid);
  }
  std::sort(heads.begin(), heads.end());
  heads.erase(std::unique(heads.begin(), heads.end()), heads.end());

  obs::AuditSink audit;
  runner->network().set_audit_sink(&audit);
  DataPlaneConfig dp;
  dp.duration_s = 3.0;
  dp.tick_interval_s = dp.duration_s;
  dp.readings_per_tick = 0;
  dp.evict_interval_s = 0.25;
  dp.evict_batch = 2;
  DataPlaneEngine engine{*runner, dp};
  const DataPlaneStats stats = engine.run();
  std::vector<ClusterId> victims;
  for (const obs::AuditEvent& e : audit.merged()) {
    if (e.kind == obs::AuditKind::kEvictionIssued) victims.push_back(e.subject);
  }
  ASSERT_EQ(victims.size(), stats.clusters_evicted);
  ASSERT_GE(victims.size(), 20u);  // 12 rounds of 2
  ASSERT_GE(heads.size(), victims.size());
  for (std::size_t k = 0; k < victims.size(); ++k) {
    EXPECT_EQ(victims[k], heads[k].second) << "eviction " << k;
  }
}

TEST(DataPlane, SteadyStateSpanLandsOnTheTimeline) {
  auto runner = after_routing(small_config(13, 80));
  DataPlaneConfig cfg;
  cfg.duration_s = 0.5;
  cfg.tick_interval_s = 0.05;
  cfg.readings_per_tick = 8;
  DataPlaneEngine engine{*runner, cfg};
  const DataPlaneStats stats = engine.run();
  EXPECT_NEAR(stats.sim_elapsed_s, 0.5, 1e-9);
  bool found = false;
  for (const auto& span : runner->timeline().spans()) {
    if (span.name == "steady_state") {
      found = true;
      EXPECT_EQ(span.t1_ns - span.t0_ns, 500'000'000);
    }
  }
  EXPECT_TRUE(found);
}

TEST(DataPlane, LongBurnPayloadsStayBounded) {
  const std::uint64_t base = net::PayloadRef::buffers_live();
  auto runner = after_routing(small_config(5, 120));
  DataPlaneConfig cfg;
  cfg.duration_s = 1.0;
  cfg.tick_interval_s = 0.05;
  cfg.readings_per_tick = 2;  // 40/s: below the radio's capacity here
  DataPlaneEngine warmup{*runner, cfg};
  ASSERT_GT(warmup.run().originated, 0u);
  const std::uint64_t live_after_warmup = net::PayloadRef::buffers_live() - base;
  ASSERT_GT(live_after_warmup, 0u);

  cfg.duration_s = 3.0;  // 3x the traffic of the warmup window
  DataPlaneEngine burn{*runner, cfg};
  ASSERT_GT(burn.run().originated, 0u);
  // Each block is freed at its frame's last delivery, so live payloads
  // are the frames in flight: 3x the traffic must not come close to 3x
  // the blocks.
  EXPECT_LE(net::PayloadRef::buffers_live() - base,
            live_after_warmup + live_after_warmup / 2 + 4);
}

TEST(DataPlane, RejectsTheShardedKernel) {
  auto cfg = small_config(3, 60);
  cfg.kernel.lanes = 2;
  auto runner = after_routing(cfg);
  ASSERT_EQ(runner->sim().lane_count(), 2u);
  // Rejected at construction, not mid-run.
  EXPECT_THROW((DataPlaneEngine{*runner, DataPlaneConfig{}}),
               std::invalid_argument);
}

TEST(DataPlane, RejectsNonPositiveTickInterval) {
  auto runner = after_routing(small_config(3, 60));
  DataPlaneConfig cfg;
  cfg.tick_interval_s = 0.0;
  EXPECT_THROW(DataPlaneEngine(*runner, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace ldke::core
