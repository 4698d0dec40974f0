#pragma once
/// \file channel.hpp
/// Broadcast wireless medium.  A transmission by node i is delivered to
/// every node within radio range after a serialization delay (packet
/// bits / bitrate) plus a small propagation delay; each receiver may
/// independently lose the packet with a configurable probability.
///
/// Collisions are off by default — the paper's SensorSimII experiments
/// measure message *counts* and key statistics without MAC contention;
/// ChannelConfig::model_collisions enables an overlap-corruption model
/// as an ablation, and loss injection covers the "unreliable link" axis.

#include <array>
#include <cstdint>
#include <functional>
#include <span>
#include <unordered_map>
#include <vector>

#include "net/energy.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace ldke::net {

struct ChannelConfig {
  double bitrate_bps = 19200.0;  ///< MICA2-class radio
  sim::SimTime propagation_delay = sim::SimTime::from_us(1.0);
  double loss_probability = 0.0;  ///< independent per receiver
  /// When true, two receptions whose airtimes overlap at the same
  /// receiver corrupt each other (no capture effect) — the collision
  /// ablation for the §V statistics.  SensorSimII (like the paper's
  /// numbers) did not model MAC contention; off by default.
  bool model_collisions = false;
  /// CSMA/CA: before transmitting, a node senses the medium (its own
  /// reception/transmission windows) and defers with a random
  /// exponential back-off while busy.  Removes most collisions at the
  /// cost of latency; hidden terminals still collide.
  bool csma = false;
  double csma_backoff_mean_s = 0.003;
  int csma_max_attempts = 16;
};

class Channel {
 public:
  /// Called once per (receiver, packet) delivery.
  using DeliveryHandler = std::function<void(NodeId receiver, const Packet&)>;

  /// A channel over \p sim's lanes.  \p lane_counters holds one registry
  /// per lane, which counts that lane's channel events; \p lane_of maps
  /// node id -> lane and is read only with more than one lane.  Both
  /// must outlive the channel.  More than one lane requires the
  /// lane-incompatible features (loss injection, collisions, CSMA) to be
  /// off — the runner clamps to one lane otherwise.
  Channel(sim::Simulator& sim, const Topology& topology, EnergyModel& energy,
          std::span<obs::MetricRegistry> lane_counters,
          const std::vector<std::uint32_t>& lane_of, ChannelConfig config = {});

  /// A channel over a one-lane \p sim, counting into \p counters.
  Channel(sim::Simulator& sim, const Topology& topology, EnergyModel& energy,
          obs::MetricRegistry& counters, ChannelConfig config = {});

  void set_delivery_handler(DeliveryHandler handler) {
    deliver_ = std::move(handler);
  }

  /// Passive global observer invoked for every transmission ("the
  /// broadcast nature of the transmission medium", §I) — the
  /// eavesdropping adversary of src/attacks records ciphertext here.
  using SnifferHandler = std::function<void(const Packet&)>;
  void set_sniffer(SnifferHandler sniffer) { sniffer_ = std::move(sniffer); }

  // ---- scenario gates (mobility / churn / duty cycling) ----------------

  /// Delivery-time liveness check: a frame already in flight to a node
  /// that left the network or put its radio to sleep must vanish at the
  /// antenna, not wake a recycled slot.  Returning false drops the frame
  /// and counts it as `pkt.dropped_gone` (no rx energy — the radio was
  /// off).  Unset: every receiver is live (the historical behaviour).
  using DeliveryGate = std::function<bool(NodeId receiver)>;
  void set_delivery_gate(DeliveryGate gate) { delivery_gate_ = std::move(gate); }

  /// Transmit-time link validity (scripted partitions, obstacle models):
  /// checked per (sender, receiver) before the loss draw; returning
  /// false suppresses the delivery and counts `pkt.dropped_partition`.
  using LinkGate = std::function<bool(NodeId sender, NodeId receiver)>;
  void set_link_gate(LinkGate gate) { link_gate_ = std::move(gate); }

  /// Broadcasts from a deployed node to all of its radio neighbors;
  /// charges tx energy to the sender and rx energy to each receiver.
  void broadcast(const Packet& packet);

  /// Broadcasts from an arbitrary position (attacker hardware that is not
  /// part of the deployment); \p radius may exceed the network range to
  /// model laptop-class transmitters.  No energy is charged.
  void broadcast_from(Vec2 position, double radius, const Packet& packet);

  [[nodiscard]] sim::SimTime tx_duration(const Packet& packet) const noexcept;

  /// Smallest possible cross-lane latency under \p config: an empty
  /// frame's airtime plus the propagation delay.  This is the
  /// simulator's lookahead — every delivery arrives at least this long
  /// after its transmission.
  [[nodiscard]] static sim::SimTime min_latency(
      const ChannelConfig& config) noexcept;

  /// Channel event totals, read from the lanes' counters.
  [[nodiscard]] std::uint64_t transmissions() const noexcept {
    return sum(obs::Counter::kChannelTx) +
           sum(obs::Counter::kChannelTxExternal);
  }
  [[nodiscard]] std::uint64_t deliveries() const noexcept {
    return sum(obs::Counter::kChannelDelivered);
  }
  [[nodiscard]] std::uint64_t bytes_sent() const noexcept {
    std::uint64_t total = 0;
    for (const LaneTallies& t : tallies_) total += t.tx_bytes;
    return total;
  }
  [[nodiscard]] std::uint64_t collisions() const noexcept {
    return sum(obs::Counter::kChannelCollision);
  }
  [[nodiscard]] std::uint64_t losses() const noexcept {
    return sum(obs::Counter::kChannelLost);
  }
  [[nodiscard]] std::uint64_t dropped_gone() const noexcept {
    return sum(obs::Counter::kPktDroppedGone);
  }
  [[nodiscard]] std::uint64_t dropped_partition() const noexcept {
    return sum(obs::Counter::kPktDroppedPartition);
  }
  [[nodiscard]] std::uint64_t csma_deferrals() const noexcept {
    return sum(obs::Counter::kChannelCsmaDefer);
  }
  [[nodiscard]] std::uint64_t csma_drops() const noexcept {
    return sum(obs::Counter::kChannelCsmaDrop);
  }

  /// Per-PacketKind transmission tallies (index by the kind's numeric
  /// value); two fixed-array increments per frame, so always on.
  /// Returned by value: the figures are folded across lanes.
  using KindArray = std::array<std::uint64_t, kPacketKindCount>;
  [[nodiscard]] KindArray tx_packets_by_kind() const noexcept;
  [[nodiscard]] KindArray tx_bytes_by_kind() const noexcept;

  [[nodiscard]] const ChannelConfig& config() const noexcept { return config_; }

 private:
  struct LaneTallies;

  /// The one transmit path, shared by broadcast() and broadcast_from().
  /// Notes the frame (sniffer, byte accounting, the lane's
  /// \p tx_counter), then makes the transmit-time decisions per receiver
  /// in CSR order: link gate, loss draw, collision window, CSMA busy
  /// note.  The receivers that survive get one delivery event per
  /// destination lane, which holds the payload by a single refcount.
  void fan_out(const Packet& packet, std::span<const NodeId> receivers,
               sim::SimTime arrival, obs::Counter tx_counter);

  /// Body of one delivery event.  Each receiver in turn, fully before
  /// the next, gets what an event of its own would have done: delivery
  /// gate, rx energy, collision check, tally, handler.  So a handler sees
  /// the state it would have seen with one event per receiver (an
  /// earlier receiver's handler may, say, put a later receiver to sleep).
  void deliver(const Packet& packet, std::span<const NodeId> receivers);

  /// Reception window at a receiver, flagged once another overlaps it.
  struct Reception {
    sim::SimTime end;
    bool corrupted = false;
  };

  /// Registers the reception window [now, when] at \p receiver, marking
  /// it and every window it overlaps as corrupted.
  void track_reception(NodeId receiver, sim::SimTime when);

  /// Whether the reception ending now at \p receiver was corrupted.
  [[nodiscard]] bool reception_corrupted(NodeId receiver) const;

  /// CSMA: actually emits the frame, or re-schedules itself while the
  /// sender's medium is busy.
  void csma_transmit(Packet packet, int attempt);
  void emit_now(const Packet& packet);
  void note_busy(NodeId node, sim::SimTime until);

  /// Per-lane accounting cell: the lane's registry, which counts the
  /// channel events, plus the byte and per-kind tallies no counter
  /// holds.  Cache-line aligned so concurrent lanes never false-share;
  /// a one-lane channel has one cell.
  struct alignas(64) LaneTallies {
    obs::MetricRegistry* counters = nullptr;
    std::uint64_t tx_bytes = 0;
    KindArray tx_packets_by_kind{};
    KindArray tx_bytes_by_kind{};
  };

  /// The calling lane's accounting cell.
  [[nodiscard]] LaneTallies& tallies() noexcept {
    return tallies_[sim::Simulator::current_lane()];
  }

  [[nodiscard]] std::uint64_t sum(obs::Counter counter) const noexcept {
    std::uint64_t total = 0;
    for (const LaneTallies& t : tallies_) total += t.counters->value(counter);
    return total;
  }

  sim::Simulator& sim_;
  const Topology& topology_;
  EnergyModel& energy_;
  ChannelConfig config_;
  DeliveryHandler deliver_;
  SnifferHandler sniffer_;
  DeliveryGate delivery_gate_;
  LinkGate link_gate_;
  std::vector<LaneTallies> tallies_;  ///< one cell per lane
  const std::vector<std::uint32_t>& lane_of_;  ///< node -> lane
  std::unordered_map<NodeId, std::vector<Reception>> active_receptions_;
  std::unordered_map<NodeId, sim::SimTime> busy_until_;
};

}  // namespace ldke::net
