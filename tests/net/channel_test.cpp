#include "net/channel.hpp"

#include <gtest/gtest.h>

#include <map>

#include "net/network.hpp"

namespace ldke::net {
namespace {

struct Fixture {
  sim::Simulator sim{1};
  Topology topo = Topology::from_positions({{0, 0}, {1, 0}, {2, 0}, {10, 0}},
                                           1.5);
  EnergyModel energy;
  obs::MetricRegistry counters;
  Channel channel{sim, topo, energy, counters, {}};
  std::map<NodeId, int> received;

  Fixture() {
    energy.resize(topo.size());
    channel.set_delivery_handler(
        [this](NodeId receiver, const Packet&) { ++received[receiver]; });
  }

  Packet packet_from(NodeId sender, std::size_t payload_bytes = 20) {
    Packet p;
    p.sender = sender;
    p.kind = PacketKind::kData;
    p.payload = support::Bytes(payload_bytes, 0xab);
    return p;
  }
};

TEST(Channel, BroadcastReachesOnlyRadioNeighbors) {
  Fixture f;
  f.channel.broadcast(f.packet_from(1));  // neighbors: 0 and 2, not 3
  f.sim.run();
  EXPECT_EQ(f.received[0], 1);
  EXPECT_EQ(f.received[2], 1);
  EXPECT_EQ(f.received[1], 0);
  EXPECT_EQ(f.received[3], 0);
}

TEST(Channel, DeliveryIsDelayedBySerializationTime) {
  Fixture f;
  const Packet p = f.packet_from(0, 100);
  const sim::SimTime expected = f.channel.tx_duration(p) +
                                f.channel.config().propagation_delay;
  sim::SimTime delivered_at = sim::SimTime::zero();
  f.channel.set_delivery_handler(
      [&](NodeId, const Packet&) { delivered_at = f.sim.now(); });
  f.channel.broadcast(p);
  f.sim.run();
  EXPECT_EQ(delivered_at, expected);
  // 111 bytes at 19200 bps is tens of milliseconds — sanity-check scale.
  EXPECT_GT(expected.milliseconds(), 10.0);
}

TEST(Channel, TxDurationScalesWithSize) {
  Fixture f;
  EXPECT_GT(f.channel.tx_duration(f.packet_from(0, 200)).ns(),
            f.channel.tx_duration(f.packet_from(0, 20)).ns());
}

TEST(Channel, CountersTrackTraffic) {
  Fixture f;
  f.channel.broadcast(f.packet_from(1));
  f.sim.run();
  EXPECT_EQ(f.channel.transmissions(), 1u);
  EXPECT_EQ(f.channel.deliveries(), 2u);
  EXPECT_EQ(f.counters.value("channel.tx"), 1u);
  EXPECT_EQ(f.counters.value("channel.delivered"), 2u);
}

TEST(Channel, EnergyChargedToSenderAndReceivers) {
  Fixture f;
  f.channel.broadcast(f.packet_from(1));
  f.sim.run();
  EXPECT_GT(f.energy.consumed_j(1), 0.0);  // tx
  EXPECT_GT(f.energy.consumed_j(0), 0.0);  // rx
  EXPECT_GT(f.energy.consumed_j(2), 0.0);  // rx
  EXPECT_EQ(f.energy.consumed_j(3), 0.0);  // out of range
  // Transmission costs more than reception (amplifier term).
  EXPECT_GT(f.energy.consumed_j(1), f.energy.consumed_j(0));
}

TEST(Channel, LossProbabilityOneDropsEverything) {
  sim::Simulator sim{1};
  auto topo = Topology::from_positions({{0, 0}, {1, 0}}, 2.0);
  EnergyModel energy;
  obs::MetricRegistry counters;
  ChannelConfig cfg;
  cfg.loss_probability = 1.0;
  Channel channel{sim, topo, energy, counters, cfg};
  int received = 0;
  channel.set_delivery_handler([&](NodeId, const Packet&) { ++received; });
  Packet p;
  p.sender = 0;
  p.payload = support::Bytes(10, 1);
  channel.broadcast(p);
  sim.run();
  EXPECT_EQ(received, 0);
  EXPECT_EQ(counters.value("channel.lost"), 1u);
}

TEST(Channel, LossProbabilityIsPerReceiver) {
  sim::Simulator sim{1234};
  // A hub with many receivers.
  std::vector<Vec2> positions{{0, 0}};
  for (int i = 0; i < 200; ++i) {
    positions.push_back({0.1 + 0.001 * i, 0.0});
  }
  auto topo = Topology::from_positions(positions, 5.0);
  EnergyModel energy;
  obs::MetricRegistry counters;
  ChannelConfig cfg;
  cfg.loss_probability = 0.3;
  Channel channel{sim, topo, energy, counters, cfg};
  int received = 0;
  channel.set_delivery_handler([&](NodeId, const Packet&) { ++received; });
  Packet p;
  p.sender = 0;
  p.payload = support::Bytes(10, 1);
  channel.broadcast(p);
  sim.run();
  EXPECT_GT(received, 100);
  EXPECT_LT(received, 180);
}

TEST(Channel, BroadcastFromArbitraryPosition) {
  Fixture f;
  Packet p;
  p.sender = 9999;  // attacker-claimed identity, not a topology slot
  p.payload = support::Bytes(5, 0xcc);
  f.channel.broadcast_from({1.0, 0.0}, 1.2, p);
  f.sim.run();
  EXPECT_EQ(f.received[0], 1);
  EXPECT_EQ(f.received[1], 1);
  EXPECT_EQ(f.received[2], 1);
  EXPECT_EQ(f.received[3], 0);
  EXPECT_EQ(f.counters.value("channel.tx_external"), 1u);
}

TEST(Channel, SnifferSeesEveryTransmission) {
  Fixture f;
  int sniffed = 0;
  f.channel.set_sniffer([&](const Packet&) { ++sniffed; });
  f.channel.broadcast(f.packet_from(0));
  f.channel.broadcast_from({0, 0}, 1.0, f.packet_from(1));
  f.sim.run();
  EXPECT_EQ(sniffed, 2);
}

TEST(Channel, CollisionsCorruptOverlappingReceptions) {
  sim::Simulator sim{1};
  // Nodes 0 and 2 both reach node 1; simultaneous transmissions collide
  // at 1 but are received fine by the far-side listeners 3 and 4.
  auto topo = Topology::from_positions(
      {{0, 0}, {1, 0}, {2, 0}, {-0.5, 0}, {2.5, 0}}, 1.2);
  EnergyModel energy;
  obs::MetricRegistry counters;
  ChannelConfig cfg;
  cfg.model_collisions = true;
  Channel channel{sim, topo, energy, counters, cfg};
  std::map<NodeId, int> received;
  channel.set_delivery_handler(
      [&](NodeId receiver, const Packet&) { ++received[receiver]; });
  Packet a;
  a.sender = 0;
  a.payload = support::Bytes(30, 1);
  Packet b;
  b.sender = 2;
  b.payload = support::Bytes(30, 2);
  channel.broadcast(a);
  channel.broadcast(b);
  sim.run();
  EXPECT_EQ(received[1], 0);  // both frames collided at the middle node
  EXPECT_EQ(received[3], 1);  // hears only node 0
  EXPECT_EQ(received[4], 1);  // hears only node 2
  EXPECT_EQ(channel.collisions(), 2u);
  EXPECT_EQ(counters.value("channel.collision"), 2u);
}

TEST(Channel, NonOverlappingTransmissionsDoNotCollide) {
  sim::Simulator sim{1};
  auto topo = Topology::from_positions({{0, 0}, {1, 0}, {2, 0}}, 1.2);
  EnergyModel energy;
  obs::MetricRegistry counters;
  ChannelConfig cfg;
  cfg.model_collisions = true;
  Channel channel{sim, topo, energy, counters, cfg};
  int received = 0;
  channel.set_delivery_handler([&](NodeId, const Packet&) { ++received; });
  Packet a;
  a.sender = 0;
  a.payload = support::Bytes(30, 1);
  channel.broadcast(a);
  sim.run();  // first frame fully received before the second starts
  Packet b;
  b.sender = 2;
  b.payload = support::Bytes(30, 2);
  channel.broadcast(b);
  sim.run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(channel.collisions(), 0u);
}

TEST(Channel, CsmaDefersInsteadOfColliding) {
  sim::Simulator sim{1};
  auto topo = Topology::from_positions({{0, 0}, {1, 0}, {2, 0}}, 1.2);
  EnergyModel energy;
  obs::MetricRegistry counters;
  ChannelConfig cfg;
  cfg.model_collisions = true;
  cfg.csma = true;
  Channel channel{sim, topo, energy, counters, cfg};
  std::map<NodeId, int> received;
  channel.set_delivery_handler(
      [&](NodeId receiver, const Packet&) { ++received[receiver]; });
  // Node 1 transmits; node 1's second frame (queued immediately) must
  // defer until the medium clears and still arrive collision-free.
  Packet a;
  a.sender = 1;
  a.payload = support::Bytes(30, 1);
  channel.broadcast(a);
  Packet b;
  b.sender = 1;
  b.payload = support::Bytes(30, 2);
  channel.broadcast(b);
  sim.run();
  EXPECT_EQ(received[0], 2);
  EXPECT_EQ(received[2], 2);
  EXPECT_EQ(channel.collisions(), 0u);
  EXPECT_GT(channel.csma_deferrals(), 0u);
}

TEST(Channel, CsmaSendersHearEachOther) {
  sim::Simulator sim{7};
  // 0 and 2 are in range of each other and of the middle node 1.
  auto topo = Topology::from_positions({{0, 0}, {1, 0}, {2, 0}}, 2.5);
  EnergyModel energy;
  obs::MetricRegistry counters;
  ChannelConfig cfg;
  cfg.model_collisions = true;
  cfg.csma = true;
  Channel channel{sim, topo, energy, counters, cfg};
  std::map<NodeId, int> received;
  channel.set_delivery_handler(
      [&](NodeId receiver, const Packet&) { ++received[receiver]; });
  Packet a;
  a.sender = 0;
  a.payload = support::Bytes(30, 1);
  Packet b;
  b.sender = 2;
  b.payload = support::Bytes(30, 2);
  channel.broadcast(a);
  // Let the first frame start arriving so node 2 senses a busy medium.
  sim.run(sim::SimTime::from_ms(5));
  channel.broadcast(b);
  sim.run();
  // With carrier sensing the middle node receives both frames.
  EXPECT_EQ(received[1], 2);
  EXPECT_EQ(channel.collisions(), 0u);
}

TEST(Channel, CsmaGivesUpAfterMaxAttempts) {
  sim::Simulator sim{3};
  auto topo = Topology::from_positions({{0, 0}, {1, 0}}, 1.5);
  EnergyModel energy;
  obs::MetricRegistry counters;
  ChannelConfig cfg;
  cfg.csma = true;
  cfg.csma_max_attempts = 0;  // no patience at all
  Channel channel{sim, topo, energy, counters, cfg};
  int received = 0;
  channel.set_delivery_handler([&](NodeId, const Packet&) { ++received; });
  Packet a;
  a.sender = 0;
  a.payload = support::Bytes(30, 1);
  channel.broadcast(a);   // goes out (medium idle)
  channel.broadcast(a);   // medium busy, zero retries allowed -> dropped
  sim.run();
  EXPECT_EQ(received, 1);
  EXPECT_EQ(channel.csma_drops(), 1u);
}

TEST(Channel, CollisionsDisabledByDefault) {
  Fixture f;
  f.channel.broadcast(f.packet_from(0));
  f.channel.broadcast(f.packet_from(2));
  f.sim.run();
  // Node 1 hears both even though they overlap in time.
  EXPECT_EQ(f.received[1], 2);
  EXPECT_EQ(f.channel.collisions(), 0u);
}

TEST(Channel, ReceiversShareOneImmutableBuffer) {
  Fixture f;
  // Every delivery observes the same bytes through the same shared
  // buffer: fan-out is a refcount bump, not a per-receiver copy.
  PayloadRef first_payload;
  int count = 0;
  f.channel.set_delivery_handler([&](NodeId, const Packet& pkt) {
    if (count++ == 0) {
      first_payload = pkt.payload;
    } else {
      EXPECT_EQ(pkt.payload, first_payload);
      EXPECT_TRUE(pkt.payload.shares_buffer_with(first_payload));
    }
  });
  f.channel.broadcast(f.packet_from(1));
  f.sim.run();
  EXPECT_EQ(count, 2);
}

TEST(Channel, DeliveryGateDropsInFlightFramesToDepartedNodes) {
  // The scenario-suite fix: a frame already in the air when its
  // receiver leaves (or falls asleep) must drop cleanly — counted as
  // pkt.dropped_gone, no delivery, no rx energy to a recycled slot.
  Fixture f;
  bool node2_gone = false;
  f.channel.set_delivery_gate([&node2_gone](NodeId receiver) {
    return !(node2_gone && receiver == 2);
  });
  f.channel.broadcast(f.packet_from(1));  // in flight toward 0 and 2
  node2_gone = true;                      // receiver departs mid-flight
  const double rx2_before = f.energy.consumed_j(2);
  f.sim.run();
  EXPECT_EQ(f.received[0], 1);
  EXPECT_EQ(f.received[2], 0);
  EXPECT_EQ(f.channel.dropped_gone(), 1u);
  EXPECT_EQ(f.counters.value("pkt.dropped_gone"), 1u);
  EXPECT_EQ(f.energy.consumed_j(2), rx2_before);  // radio was off
}

TEST(Channel, LinkGateBlocksAtTransmitTime) {
  // Partition wall: both directions across the cut are suppressed when
  // the frame is scheduled, before any loss draw or airtime charge.
  Fixture f;
  f.channel.set_link_gate([](NodeId sender, NodeId receiver) {
    return (sender <= 1) == (receiver <= 1);  // cut between 1 and 2
  });
  f.channel.broadcast(f.packet_from(1));  // neighbors: 0 (same side), 2
  f.sim.run();
  EXPECT_EQ(f.received[0], 1);
  EXPECT_EQ(f.received[2], 0);
  EXPECT_EQ(f.channel.dropped_partition(), 1u);
  EXPECT_EQ(f.counters.value("pkt.dropped_partition"), 1u);
}

TEST(Channel, BroadcastAllocatesNoPayloadBuffers) {
  Fixture f;
  Packet p = f.packet_from(1);
  // The payload buffer was allocated when the packet was built; the
  // broadcast itself — including scheduling one delivery per neighbor —
  // must not create any further payload buffers.
  const std::uint64_t before = PayloadRef::buffers_created();
  f.channel.broadcast(p);
  f.sim.run();
  EXPECT_EQ(PayloadRef::buffers_created(), before);
  EXPECT_EQ(f.received[0] + f.received[2], 2);
}

}  // namespace
}  // namespace ldke::net
