#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "attacks/adversary.hpp"
#include "crypto/authenc.hpp"
#include "test_helpers.hpp"
#include "wsn/messages.hpp"

namespace ldke::core {
namespace {

using testing::after_routing;
using testing::small_config;

net::NodeId pick_far_node(const ProtocolRunner& runner) {
  // The node geometrically farthest from the base station (node 0).
  const auto& topo = runner.network().topology();
  net::NodeId best = 1;
  double best_d = 0.0;
  for (net::NodeId id = 1; id < runner.node_count(); ++id) {
    const double d = net::distance(topo.position(0), topo.position(id));
    if (d > best_d && runner.node(id).routing().has_route()) {
      best_d = d;
      best = id;
    }
  }
  return best;
}

TEST(Forwarding, ReadingReachesBaseStationIntact) {
  auto runner = after_routing();
  const net::NodeId source = pick_far_node(*runner);
  const auto payload = support::bytes_of("humidity=0.62");
  ASSERT_TRUE(runner->node(source).send_reading(runner->network(), payload));
  runner->run_for(5.0);
  const auto& readings = runner->base_station()->readings();
  ASSERT_EQ(readings.size(), 1u);
  EXPECT_EQ(readings[0].source, source);
  EXPECT_EQ(readings[0].payload, payload);
  EXPECT_TRUE(readings[0].was_e2e_protected);
  EXPECT_EQ(runner->base_station()->e2e_auth_failures(), 0u);
}

TEST(Forwarding, MultiHopPathReencryptsPerCluster) {
  auto runner = after_routing();
  const net::NodeId source = pick_far_node(*runner);
  ASSERT_GT(runner->node(source).routing().hop(), 1u)
      << "need a multi-hop source for this test";
  const auto before_hops = runner->network().counters().value("data.hop_tx");
  runner->node(source).send_reading(runner->network(),
                                    support::bytes_of("x"));
  runner->run_for(5.0);
  const auto hops = runner->network().counters().value("data.hop_tx") -
                    before_hops;
  // One Step-2 wrap per hop: at least the source's hop count.
  EXPECT_GE(hops, runner->node(source).routing().hop());
  EXPECT_EQ(runner->base_station()->readings().size(), 1u);
}

TEST(Forwarding, RepeatedReadingsChargeEachKiBuildOnce) {
  auto runner = after_routing();
  const net::NodeId source = pick_far_node(*runner);
  const SensorNode& node = runner->node(source);
  const BaseStation& bs = *runner->base_station();
  const std::uint64_t bs_before = bs.crypto_stats().prf_calls;
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t before = node.crypto_stats().prf_calls;
    ASSERT_TRUE(runner->node(source).send_reading(runner->network(),
                                                  support::bytes_of("r")));
    // The first origination builds the Ki context (two F calls); the
    // cluster key's context was built when the node sent its beacon.
    EXPECT_EQ(node.crypto_stats().prf_calls - before, i == 0 ? 2u : 0u)
        << "origination " << i;
    runner->run_for(3.0);
  }
  EXPECT_EQ(bs.readings().size(), 8u);
  // The base station derives Ki = F(root, source) once and builds its
  // context once.
  EXPECT_EQ(bs.crypto_stats().prf_calls - bs_before, 1u + 2u);
}

TEST(Forwarding, ManySourcesAllDelivered) {
  auto runner = after_routing();
  std::size_t sent = 0;
  for (net::NodeId id = 1; id < runner->node_count(); id += 10) {
    if (runner->node(id).send_reading(runner->network(),
                                      support::bytes_of("r"))) {
      ++sent;
    }
  }
  runner->run_for(10.0);
  EXPECT_EQ(runner->base_station()->readings().size(), sent);
}

TEST(Forwarding, SequentialReadingsUseFreshCounters) {
  auto runner = after_routing();
  const net::NodeId source = pick_far_node(*runner);
  for (int i = 0; i < 5; ++i) {
    runner->node(source).send_reading(runner->network(),
                                      support::bytes_of("r"));
    runner->run_for(3.0);
  }
  EXPECT_EQ(runner->base_station()->readings().size(), 5u);
  EXPECT_EQ(runner->base_station()->counter_violations(), 0u);
}

TEST(Forwarding, DataFusionModeDeliversPlaintextInner) {
  auto cfg = small_config();
  cfg.protocol.e2e_encrypt = false;
  auto runner = after_routing(cfg);
  const net::NodeId source = pick_far_node(*runner);
  const auto payload = support::bytes_of("aggregatable");
  runner->node(source).send_reading(runner->network(), payload);
  runner->run_for(5.0);
  ASSERT_EQ(runner->base_station()->readings().size(), 1u);
  EXPECT_FALSE(runner->base_station()->readings()[0].was_e2e_protected);
  EXPECT_EQ(runner->base_station()->readings()[0].payload, payload);
}

TEST(Forwarding, SendFailsWithoutRoute) {
  auto runner = testing::after_key_setup();  // no routing round
  EXPECT_FALSE(
      runner->node(1).send_reading(runner->network(), support::bytes_of("x")));
}

TEST(Forwarding, FusionFilterDiscardsRedundantReports) {
  auto cfg = small_config();
  cfg.protocol.e2e_encrypt = false;  // fusion needs readable content
  auto runner = after_routing(cfg);
  const net::NodeId source = pick_far_node(*runner);
  const net::NodeId forwarder = runner->node(source).routing().parent();
  ASSERT_NE(forwarder, net::kNoNode);
  if (forwarder == 0) GTEST_SKIP() << "source adjacent to base station";
  runner->node(forwarder).set_fusion_filter(
      [](const wsn::DataInner&) { return false; });  // everything redundant
  runner->node(source).send_reading(runner->network(),
                                    support::bytes_of("dup"));
  runner->run_for(5.0);
  EXPECT_EQ(runner->base_station()->readings().size(), 0u);
  EXPECT_GE(runner->network().counters().value("data.fusion_dropped"), 1u);
}

TEST(Forwarding, FusionModeTimesEachDeliveryFromItsOwnReading) {
  auto cfg = small_config();
  cfg.protocol.e2e_encrypt = false;
  auto runner = after_routing(cfg);
  const net::NodeId source = pick_far_node(*runner);
  const net::NodeId forwarder = runner->node(source).routing().parent();
  ASSERT_NE(forwarder, net::kNoNode);
  if (forwarder == 0) GTEST_SKIP() << "source adjacent to base station";
  // The forwarder discards the first reading, so the next two must each
  // be timed from their own origination, not from the lost one.
  const auto lost = support::bytes_of("r0");
  runner->node(forwarder).set_fusion_filter(
      [&lost](const wsn::DataInner& inner) { return inner.body != lost; });
  std::vector<std::int64_t> sent_at;
  for (const char* text : {"r0", "r1", "r2"}) {
    sent_at.push_back(runner->sim().now().ns());
    ASSERT_TRUE(runner->node(source).send_reading(runner->network(),
                                                  support::bytes_of(text)));
    runner->run_for(3.0);
  }
  const obs::DeliveryTracker& tracker = runner->deliveries();
  ASSERT_EQ(runner->base_station()->readings().size(), 2u);
  EXPECT_EQ(tracker.originated(), 3u);
  EXPECT_EQ(tracker.delivered(), 2u);
  EXPECT_EQ(tracker.unmatched(), 0u);
  ASSERT_EQ(tracker.samples().size(), 2u);
  EXPECT_EQ(tracker.samples()[0].t_tx_ns, sent_at[1]);
  EXPECT_EQ(tracker.samples()[1].t_tx_ns, sent_at[2]);
}

TEST(Forwarding, PromptReplayRejectedByNonceTracking) {
  auto runner = after_routing();
  // Record the source's own transmission, then replay it verbatim while
  // still inside the freshness window: the per-sender nonce tracking
  // must catch it.
  net::Packet recorded;
  bool have = false;
  runner->network().channel().set_sniffer([&](const net::Packet& pkt) {
    if (!have && pkt.kind == net::PacketKind::kData) {
      recorded = pkt;
      have = true;
    }
  });
  const net::NodeId source = pick_far_node(*runner);
  runner->node(source).send_reading(runner->network(), support::bytes_of("x"));
  runner->run_for(0.1);  // original delivered to neighbors, window open
  ASSERT_TRUE(have);
  const auto before = runner->network().counters().value("envelope.replay");

  const auto pos = runner->network().topology().position(recorded.sender);
  runner->network().channel().broadcast_from(
      pos, runner->network().topology().range(), recorded);
  runner->run_for(5.0);
  EXPECT_GT(runner->network().counters().value("envelope.replay"), before);
  // The reading was delivered exactly once despite the replay.
  EXPECT_EQ(runner->base_station()->readings().size(), 1u);
}

TEST(Forwarding, DelayedReplayRejectedByFreshness) {
  auto runner = after_routing();
  net::Packet recorded;
  bool have = false;
  runner->network().channel().set_sniffer([&](const net::Packet& pkt) {
    if (!have && pkt.kind == net::PacketKind::kData) {
      recorded = pkt;
      have = true;
    }
  });
  const net::NodeId source = pick_far_node(*runner);
  runner->node(source).send_reading(runner->network(), support::bytes_of("x"));
  runner->run_for(5.0);  // well past the freshness window
  ASSERT_TRUE(have);
  const auto delivered = runner->base_station()->readings().size();
  const auto before = runner->network().counters().value("envelope.stale") +
                      runner->network().counters().value("envelope.replay");

  const auto pos = runner->network().topology().position(recorded.sender);
  runner->network().channel().broadcast_from(
      pos, runner->network().topology().range(), recorded);
  runner->run_for(2.0);
  EXPECT_GT(runner->network().counters().value("envelope.stale") +
                runner->network().counters().value("envelope.replay"),
            before);
  EXPECT_EQ(runner->base_station()->readings().size(), delivered);
}

TEST(Forwarding, TamperedEnvelopeRejected) {
  auto runner = after_routing();
  net::Packet recorded;
  bool have = false;
  runner->network().channel().set_sniffer([&](const net::Packet& pkt) {
    if (!have && pkt.kind == net::PacketKind::kData) {
      recorded = pkt;
      have = true;
    }
  });
  const net::NodeId source = pick_far_node(*runner);
  runner->node(source).send_reading(runner->network(), support::bytes_of("x"));
  runner->run_for(5.0);
  ASSERT_TRUE(have);
  const auto delivered = runner->base_station()->readings().size();

  support::Bytes tampered = recorded.payload.to_bytes();
  tampered.back() ^= 0x01;  // flip a tag bit
  // Also bump the nonce so it is not rejected as a replay first.
  tampered[8] ^= 0x40;  // nonce bytes live at offset 8..15
  recorded.payload = std::move(tampered);
  const auto before = runner->network().counters().value("envelope.auth_fail");
  const auto pos = runner->network().topology().position(recorded.sender);
  runner->network().channel().broadcast_from(
      pos, runner->network().topology().range(), recorded);
  runner->run_for(2.0);
  EXPECT_GT(runner->network().counters().value("envelope.auth_fail"), before);
  EXPECT_EQ(runner->base_station()->readings().size(), delivered);
}

TEST(Forwarding, StaleTimestampRejected) {
  auto runner = after_routing();
  // Use genuinely captured key material to build a well-formed but stale
  // envelope (freshness must hold even against key holders).
  attacks::Adversary adversary{*runner};
  const net::NodeId victim = pick_far_node(*runner);
  const auto& material = adversary.capture(victim);

  wsn::DataInner inner;
  inner.tau_ns =
      runner->sim().now().ns() - sim::SimTime::from_seconds(30).ns();
  inner.echoed_cid = material.cid;
  inner.source = victim;
  inner.body = support::bytes_of("stale");
  wsn::DataHeader header;
  header.cid = material.cid;
  header.next_hop = net::kNoNode;
  header.nonce = (std::uint64_t{victim} << 32) | 0xFFFFFF00ULL;
  const auto header_bytes = wsn::encode(header);
  auto sealed = crypto::seal_with(material.cluster_keys.at(material.cid),
                                  header.nonce, wsn::encode(inner),
                                  header_bytes);
  net::Packet pkt;
  pkt.sender = victim;
  pkt.kind = net::PacketKind::kData;
  pkt.payload = wsn::join_envelope(header_bytes, sealed);

  const auto before = runner->network().counters().value("envelope.stale");
  const auto pos = runner->network().topology().position(victim);
  runner->network().channel().broadcast_from(
      pos, runner->network().topology().range(), pkt);
  runner->run_for(2.0);
  EXPECT_GT(runner->network().counters().value("envelope.stale"), before);
}

TEST(Forwarding, BaseStationRejectsReplayedEndToEndCounter) {
  auto runner = after_routing();
  attacks::Adversary adversary{*runner};
  const net::NodeId source = pick_far_node(*runner);

  // Legitimate reading first: BS expected counter for `source` becomes 2.
  runner->node(source).send_reading(runner->network(), support::bytes_of("a"));
  runner->run_for(5.0);
  ASSERT_EQ(runner->base_station()->readings().size(), 1u);

  // Adversary captures the source (gets Ki) and a neighbor of the BS
  // (gets a cluster key the BS can verify), then forges a reading that
  // reuses counter 1.
  const auto& source_material = adversary.capture(source);
  const net::NodeId bs_neighbor =
      runner->network().topology().neighbors(0)[0];
  const auto& relay_material = adversary.capture(bs_neighbor);

  wsn::DataInner inner;
  inner.tau_ns = runner->sim().now().ns();
  inner.echoed_cid = relay_material.cid;
  inner.source = source;
  inner.e2e_counter = 1;  // replayed
  inner.e2e_encrypted = 1;
  inner.body = crypto::seal(crypto::derive_pair(source_material.node_key), 1,
                            support::bytes_of("forged"));
  wsn::DataHeader header;
  header.cid = relay_material.cid;
  header.next_hop = 0;  // the base station
  header.nonce = (std::uint64_t{bs_neighbor} << 32) | 0xFFFFFF00ULL;
  const auto header_bytes = wsn::encode(header);
  auto sealed = crypto::seal_with(
      relay_material.cluster_keys.at(relay_material.cid), header.nonce,
      wsn::encode(inner), header_bytes);
  net::Packet pkt;
  pkt.sender = bs_neighbor;
  pkt.kind = net::PacketKind::kData;
  pkt.payload = wsn::join_envelope(header_bytes, sealed);

  const auto pos = runner->network().topology().position(bs_neighbor);
  runner->network().channel().broadcast_from(
      pos, runner->network().topology().range(), pkt);
  runner->run_for(2.0);
  EXPECT_EQ(runner->base_station()->readings().size(), 1u);
  EXPECT_GE(runner->base_station()->counter_violations(), 1u);
}

TEST(Forwarding, BaseStationRejectsForgedEndToEndBody) {
  auto runner = after_routing();
  attacks::Adversary adversary{*runner};
  const net::NodeId bs_neighbor =
      runner->network().topology().neighbors(0)[0];
  const auto& relay_material = adversary.capture(bs_neighbor);

  // A forger without Ki of the claimed source: hop layer verifies (it
  // has a cluster key) but Step 1 must fail at the base station.
  crypto::Key128 wrong_key;
  wrong_key.bytes.fill(0x31);
  wsn::DataInner inner;
  inner.tau_ns = runner->sim().now().ns();
  inner.echoed_cid = relay_material.cid;
  inner.source = 17;  // claims to be node 17
  inner.e2e_counter = 1;
  inner.e2e_encrypted = 1;
  inner.body =
      crypto::seal(crypto::derive_pair(wrong_key), 1, support::bytes_of("f"));
  wsn::DataHeader header;
  header.cid = relay_material.cid;
  header.next_hop = 0;
  header.nonce = (std::uint64_t{bs_neighbor} << 32) | 0xFFFFFF00ULL;
  const auto header_bytes = wsn::encode(header);
  auto sealed = crypto::seal_with(
      relay_material.cluster_keys.at(relay_material.cid), header.nonce,
      wsn::encode(inner), header_bytes);
  net::Packet pkt;
  pkt.sender = bs_neighbor;
  pkt.kind = net::PacketKind::kData;
  pkt.payload = wsn::join_envelope(header_bytes, sealed);

  const auto pos = runner->network().topology().position(bs_neighbor);
  runner->network().channel().broadcast_from(
      pos, runner->network().topology().range(), pkt);
  runner->run_for(2.0);
  EXPECT_EQ(runner->base_station()->readings().size(), 0u);
  EXPECT_GE(runner->base_station()->e2e_auth_failures(), 1u);
}

TEST(Forwarding, SelectiveForwardingDropsTraffic) {
  auto runner = after_routing();
  const net::NodeId source = pick_far_node(*runner);
  const net::NodeId forwarder = runner->node(source).routing().parent();
  if (forwarder == 0) GTEST_SKIP() << "source adjacent to base station";
  runner->node(forwarder).set_forward_drop_probability(1.0);
  runner->node(source).send_reading(runner->network(), support::bytes_of("x"));
  runner->run_for(5.0);
  EXPECT_EQ(runner->base_station()->readings().size(), 0u);
  EXPECT_GE(runner->network().counters().value("data.maliciously_dropped"),
            1u);
}

}  // namespace
}  // namespace ldke::core
