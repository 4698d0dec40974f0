#include "core/dataplane.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/run_artifacts.hpp"
#include "core/base_station.hpp"
#include "crypto/sha256.hpp"
#include "net/packet_trace.hpp"
#include "obs/audit.hpp"
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
  cfg.arena_generation_ticks = 8;
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

// Recorded from the engine when it still had two pipelines, on its
// default (batched) pipeline; its per-packet pipeline produced the same
// digests.  The batched pipeline charged each origination's hop-wrap
// seal and context build to the engine's own counters, so the seals and
// sealed bytes below are its node plus engine totals (4,517 + 951
// seals), and the prf calls are the per-packet pipeline's: the engine's
// 893 are the refresh rounds' F evaluations.
constexpr const char* kRecordedAirDigest =
    "770d03815bf497be087a10c727db5df6fe9e6667ba6a5674443052f69996c0c6";
constexpr std::size_t kRecordedFrames = 4345;
constexpr std::size_t kRecordedDeliveries = 691;
constexpr std::size_t kRecordedReadings = 691;

constexpr const char* kRecordedTraceDigest =
    "25f20b575d17c72b04c98630c9eb398076d3cbf2859c96f3e086a98395c64a99";
constexpr std::size_t kRecordedPacketRecords = 4345;
constexpr std::size_t kRecordedAuditEvents = 309;
constexpr std::size_t kRecordedJsonlBytes = 366144;

void expect_recorded_stats(const DataPlaneStats& stats) {
  EXPECT_EQ(stats.ticks, 40u);
  EXPECT_EQ(stats.attempts, 953u);
  EXPECT_EQ(stats.originated, 951u);
  EXPECT_EQ(stats.refresh_rounds, 2u);
  EXPECT_EQ(stats.clusters_evicted, 1u);
  EXPECT_EQ(stats.arena_generations, 5u);
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
  EXPECT_EQ(totals.seals, 5468u);
  EXPECT_EQ(totals.sealed_bytes, 255550u);
  EXPECT_EQ(totals.opens, 47753u);
  EXPECT_EQ(totals.opened_bytes, 2860627u);
  EXPECT_EQ(totals.open_failures, 1757u);
  // 4,221 were charged to the nodes before, and 893 — the refresh
  // rounds' F calls and the revocation — to the engine's own sink.
  EXPECT_EQ(totals.prf_calls, 4221u + 893u);
}

TEST(DataPlane, TracesMatchTheRecordedOutput) {
  auto runner = after_routing(small_config(11));
  net::PacketTrace trace{1 << 20};
  obs::AuditSink audit;
  trace.attach(runner->network());
  runner->network().set_audit_sink(&audit);
  DataPlaneEngine engine{*runner, engine_config()};
  expect_recorded_stats(engine.run());

  // The packet trace, record for record in canonical order.
  Digest digest;
  const auto records = trace.merged_records();
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

  const auto counts = audit.counts_by_kind();
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

TEST(DataPlane, LongBurnArenaStaysBounded) {
  auto runner = after_routing(small_config(5, 120));
  DataPlaneConfig cfg;
  cfg.duration_s = 1.0;
  cfg.tick_interval_s = 0.02;
  cfg.readings_per_tick = 16;
  cfg.arena_generation_ticks = 4;
  DataPlaneEngine warmup{*runner, cfg};
  warmup.run();
  const std::size_t chunks_after_warmup = runner->payload_arena().chunk_count();
  const std::uint64_t gen_after_warmup = runner->payload_arena().generation();
  ASSERT_GT(gen_after_warmup, 0u);
  ASSERT_GT(chunks_after_warmup, 0u);

  cfg.duration_s = 3.0;  // 3x the traffic of the warmup window
  DataPlaneEngine burn{*runner, cfg};
  burn.run();
  EXPECT_GT(runner->payload_arena().generation(), gen_after_warmup);
  // Generation reclamation keeps the chunk population at the in-flight
  // working set: 3x the traffic must not come close to 3x the chunks.
  EXPECT_LE(runner->payload_arena().chunk_count(),
            chunks_after_warmup + chunks_after_warmup / 2 + 4);
}

TEST(DataPlane, RejectsTheShardedKernel) {
  auto cfg = small_config(3, 60);
  cfg.kernel.lanes = 2;
  auto runner = after_routing(cfg);
  ASSERT_NE(runner->sim().kernel(), nullptr);
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
