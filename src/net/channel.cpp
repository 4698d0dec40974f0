#include "net/channel.hpp"

#include <cassert>

namespace ldke::net {

Channel::Channel(sim::Simulator& sim, const Topology& topology,
                 EnergyModel& energy,
                 std::span<obs::MetricRegistry> lane_counters,
                 const std::vector<std::uint32_t>& lane_of,
                 ChannelConfig config)
    : sim_(sim),
      topology_(topology),
      energy_(energy),
      config_(config),
      tallies_(sim.lane_count()),
      lane_of_(lane_of) {
  assert(lane_counters.size() == sim.lane_count());
  assert((sim.lane_count() == 1 ||
          (config_.loss_probability == 0.0 && !config_.model_collisions &&
           !config_.csma)) &&
         "lane-incompatible channel features enabled");
  for (std::size_t l = 0; l < tallies_.size(); ++l) {
    tallies_[l].counters = &lane_counters[l];
  }
}

namespace {
const std::vector<std::uint32_t> kOneLane;
}  // namespace

Channel::Channel(sim::Simulator& sim, const Topology& topology,
                 EnergyModel& energy, obs::MetricRegistry& counters,
                 ChannelConfig config)
    : Channel(sim, topology, energy, {&counters, 1}, kOneLane, config) {}

sim::SimTime Channel::tx_duration(const Packet& packet) const noexcept {
  const double bits = static_cast<double>(packet.size_bytes()) * 8.0;
  return sim::SimTime::from_seconds(bits / config_.bitrate_bps);
}

sim::SimTime Channel::min_latency(const ChannelConfig& config) noexcept {
  const double overhead_bits = static_cast<double>(kFrameOverheadBytes) * 8.0;
  return sim::SimTime::from_seconds(overhead_bits / config.bitrate_bps) +
         config.propagation_delay;
}

Channel::KindArray Channel::tx_packets_by_kind() const noexcept {
  KindArray out{};
  for (const LaneTallies& t : tallies_) {
    for (std::size_t k = 0; k < kPacketKindCount; ++k) {
      out[k] += t.tx_packets_by_kind[k];
    }
  }
  return out;
}

Channel::KindArray Channel::tx_bytes_by_kind() const noexcept {
  KindArray out{};
  for (const LaneTallies& t : tallies_) {
    for (std::size_t k = 0; k < kPacketKindCount; ++k) {
      out[k] += t.tx_bytes_by_kind[k];
    }
  }
  return out;
}

void Channel::track_reception(NodeId receiver, sim::SimTime when) {
  const sim::SimTime now = sim_.now();
  auto& active = active_receptions_[receiver];
  // Prune finished windows, but keep those ending exactly now: their
  // delivery may still be pending at this instant and reads its flag.
  std::erase_if(active, [now](const Reception& r) { return r.end < now; });
  bool corrupted = false;
  for (Reception& ongoing : active) {
    // Any temporal overlap corrupts both frames (no capture effect).
    if (ongoing.end <= now) continue;
    ongoing.corrupted = true;
    corrupted = true;
  }
  active.push_back(Reception{when, corrupted});
}

bool Channel::reception_corrupted(NodeId receiver) const {
  // Every window has positive airtime, so two windows ending at the
  // same instant at one receiver overlap: any window ending now carries
  // the right flag.
  for (const Reception& r : active_receptions_.at(receiver)) {
    if (r.end == sim_.now()) return r.corrupted;
  }
  assert(false && "delivery without a tracked reception");
  return false;
}

void Channel::note_busy(NodeId node, sim::SimTime until) {
  auto& busy = busy_until_[node];
  if (until > busy) busy = until;
}

void Channel::fan_out(const Packet& packet, std::span<const NodeId> receivers,
                      sim::SimTime arrival, obs::Counter tx_counter) {
  if (sniffer_) sniffer_(packet);
  LaneTallies& t = tallies();
  t.counters->increment(tx_counter);
  t.tx_bytes += packet.size_bytes();
  const auto kind = static_cast<std::size_t>(packet.kind);
  if (kind < kPacketKindCount) {
    ++t.tx_packets_by_kind[kind];
    t.tx_bytes_by_kind[kind] += packet.size_bytes();
  }
  std::vector<NodeId> heard;
  heard.reserve(receivers.size());
  for (NodeId receiver : receivers) {
    // Link validity is a transmit-time fact (a partition wall blocks the
    // signal itself), so gate before the per-receiver loss draw.
    if (link_gate_ && !link_gate_(packet.sender, receiver)) {
      t.counters->increment(obs::Counter::kPktDroppedPartition);
      continue;
    }
    if (config_.loss_probability > 0.0 &&
        sim_.rng().bernoulli(config_.loss_probability)) {
      t.counters->increment(obs::Counter::kChannelLost);
      continue;
    }
    if (config_.model_collisions) track_reception(receiver, arrival);
    // Carrier sensing: an incoming frame keeps the receiver's medium busy
    // until it fully arrives.
    if (config_.csma) note_busy(receiver, arrival);
    heard.push_back(receiver);
  }
  if (heard.empty()) return;
  // Capturing the packet by value only bumps the payload refcount — the
  // bytes are immutable and shared by every receiver of the event.
  const auto event = [this, &packet](std::vector<NodeId> to) {
    auto fn = [this, packet, to = std::move(to)] { deliver(packet, to); };
    static_assert(sizeof(fn) <= sim::EventFn::kInlineBytes,
                  "delivery event must stay within EventFn's inline buffer");
    return fn;
  };
  if (tallies_.size() == 1) {
    sim_.schedule_at(arrival, event(std::move(heard)));
    return;
  }
  // More lanes: one event per destination lane.  Off-lane receivers
  // travel as a halo event, merged at the next window barrier in
  // canonical order; `arrival` satisfies the lookahead contract because
  // it is at least min_latency() after the transmission.
  std::vector<std::vector<NodeId>> by_lane(tallies_.size());
  for (NodeId receiver : heard) {
    by_lane[lane_of_[receiver]].push_back(receiver);
  }
  const std::uint32_t here = sim::Simulator::current_lane();
  for (std::uint32_t lane = 0; lane < by_lane.size(); ++lane) {
    if (by_lane[lane].empty()) continue;
    if (lane == here) {
      sim_.schedule_at(arrival, event(std::move(by_lane[lane])));
    } else {
      sim_.schedule_cross(lane, arrival, event(std::move(by_lane[lane])));
    }
  }
}

void Channel::deliver(const Packet& packet, std::span<const NodeId> receivers) {
  // Runs on the receivers' lane, so the tallies cell and the per-node
  // energy slots are lane-local.
  LaneTallies& t = tallies();
  for (NodeId receiver : receivers) {
    // A node that left or slept between transmission and arrival hears
    // nothing: no rx energy, no dispatch into its (possibly recycled)
    // slot — the frame just dies on the air.
    if (delivery_gate_ && !delivery_gate_(receiver)) {
      t.counters->increment(obs::Counter::kPktDroppedGone);
      continue;
    }
    // The radio listened either way.
    energy_.charge_rx(receiver, packet.size_bytes());
    if (config_.model_collisions && reception_corrupted(receiver)) {
      t.counters->increment(obs::Counter::kChannelCollision);
      continue;
    }
    t.counters->increment(obs::Counter::kChannelDelivered);
    if (deliver_) deliver_(receiver, packet);
  }
}

void Channel::emit_now(const Packet& packet) {
  const sim::SimTime tx_end = sim_.now() + tx_duration(packet);
  energy_.charge_tx(packet.sender, packet.size_bytes(), topology_.range());
  if (config_.csma) note_busy(packet.sender, tx_end);
  fan_out(packet, topology_.neighbors(packet.sender),
          tx_end + config_.propagation_delay, obs::Counter::kChannelTx);
}

void Channel::csma_transmit(Packet packet, int attempt) {
  const auto it = busy_until_.find(packet.sender);
  const bool busy = it != busy_until_.end() && it->second > sim_.now();
  if (!busy) {
    emit_now(packet);
    return;
  }
  LaneTallies& t = tallies();
  if (attempt >= config_.csma_max_attempts) {
    t.counters->increment(obs::Counter::kChannelCsmaDrop);
    return;
  }
  t.counters->increment(obs::Counter::kChannelCsmaDefer);
  const sim::SimTime resume =
      it->second + sim::SimTime::from_seconds(
                       sim_.rng().exponential(1.0 / config_.csma_backoff_mean_s));
  sim_.schedule_at(resume, [this, packet = std::move(packet), attempt] {
    csma_transmit(packet, attempt + 1);
  });
}

void Channel::broadcast(const Packet& packet) {
  if (config_.csma) {
    csma_transmit(packet, 0);
  } else {
    emit_now(packet);
  }
}

void Channel::broadcast_from(Vec2 position, double radius,
                             const Packet& packet) {
  const std::vector<NodeId> receivers = topology_.nodes_within(position, radius);
  fan_out(packet, receivers,
          sim_.now() + tx_duration(packet) + config_.propagation_delay,
          obs::Counter::kChannelTxExternal);
}

}  // namespace ldke::net
