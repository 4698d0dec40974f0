#include "net/network.hpp"

#include <algorithm>
#include <cmath>

namespace ldke::net {

Network::Network(sim::Simulator& sim, Topology topology,
                 ChannelConfig channel_cfg, EnergyConfig energy_cfg)
    : sim_(sim),
      topology_(std::move(topology)),
      energy_(energy_cfg),
      channel_(sim, topology_, energy_, counters_, channel_cfg) {
  energy_.resize(topology_.size());
  nodes_.resize(topology_.size(), nullptr);
  channel_.set_delivery_handler(
      [this](NodeId receiver, const Packet& packet) {
        dispatch(receiver, packet);
      });
}

std::uint32_t Network::lane_for_position(Vec2 pos) const noexcept {
  const std::size_t lanes = kernel_ != nullptr ? kernel_->lane_count() : 1;
  if (lanes <= 1 || topology_.side() <= 0.0) return 0;
  const auto raw = static_cast<std::int64_t>(
      std::floor(pos.x / topology_.side() * static_cast<double>(lanes)));
  return static_cast<std::uint32_t>(
      std::clamp<std::int64_t>(raw, 0, static_cast<std::int64_t>(lanes) - 1));
}

void Network::enable_lanes(sim::ShardedKernel& kernel) {
  kernel_ = &kernel;
  const std::size_t lanes = kernel.lane_count();
  lane_of_.resize(topology_.size());
  for (NodeId id = 0; id < topology_.size(); ++id) {
    lane_of_[id] = lane_for_position(topology_.position(id));
  }
  lane_counters_.clear();
  lane_counters_.push_back(&counters_);
  extra_counters_.clear();
  for (std::size_t l = 1; l < lanes; ++l) {
    extra_counters_.push_back(std::make_unique<obs::MetricRegistry>());
    lane_counters_.push_back(extra_counters_.back().get());
  }
  channel_.enable_lanes(kernel, lane_of_, lane_counters_);
  if (audit_sink_ != nullptr) audit_sink_->enable_lanes(lanes);
  if (packet_trace_ != nullptr) packet_trace_->enable_lanes(lanes);
}

void Network::set_packet_trace(PacketTrace* trace) {
  packet_trace_ = trace;
  if (trace == nullptr) {
    channel_.set_sniffer(nullptr);
    return;
  }
  trace->enable_lanes(lane_count());
  channel_.set_sniffer([this](const Packet& pkt) {
    packet_trace_->record(
        record_lane(), {sim_.now().ns(), pkt.sender, pkt.kind,
                        static_cast<std::uint32_t>(pkt.size_bytes())});
  });
}

void Network::fold_lane_metrics() {
  for (auto& extra : extra_counters_) {
    counters_.merge_from(*extra);
  }
}

void Network::ensure_scenario_gating() {
  if (scenario_gating_) return;
  scenario_gating_ = true;
  channel_.set_delivery_gate([this](NodeId receiver) {
    return is_active(receiver);
  });
}

void Network::set_asleep(NodeId id, bool asleep) {
  ensure_scenario_gating();
  if (id >= radio_state_.size()) {
    radio_state_.resize(std::max<std::size_t>(topology_.size(), id + 1),
                        RadioState::kActive);
  }
  if (radio_state_[id] == RadioState::kGone) return;
  radio_state_[id] = asleep ? RadioState::kAsleep : RadioState::kActive;
}

void Network::mark_gone(NodeId id) {
  ensure_scenario_gating();
  if (id >= radio_state_.size()) {
    radio_state_.resize(std::max<std::size_t>(topology_.size(), id + 1),
                        RadioState::kActive);
  }
  radio_state_[id] = RadioState::kGone;
  if (id < nodes_.size()) nodes_[id] = nullptr;
}

void Network::set_partition_x(double x) {
  partition_x_ = x;
  channel_.set_link_gate([this](NodeId sender, NodeId receiver) {
    if (!partition_x_) return true;
    // External transmitters (attacker hardware) are outside the topology
    // and outside the scripted wall.
    if (sender >= topology_.size()) return true;
    const bool a = topology_.position(sender).x < *partition_x_;
    const bool b = topology_.position(receiver).x < *partition_x_;
    return a == b;
  });
}

void Network::attach(Node& node) {
  if (node.id() >= nodes_.size()) nodes_.resize(node.id() + 1, nullptr);
  nodes_[node.id()] = &node;
}

NodeId Network::deploy_position(Vec2 pos) {
  const NodeId id = topology_.add_node(pos);
  energy_.resize(topology_.size());
  if (id >= nodes_.size()) nodes_.resize(id + 1, nullptr);
  if (kernel_ != nullptr) {
    lane_of_.resize(topology_.size(), 0);
    lane_of_[id] = lane_for_position(pos);
  }
  return id;
}

void Network::start_all() {
  for (Node* node : nodes_) {
    if (node == nullptr) continue;
    if (kernel_ != nullptr) {
      // Bind the (serial) starting thread to the node's home lane so its
      // kick-off timers land in that lane's scheduler.
      sim::ShardedKernel::LaneScope scope{*kernel_, lane_of_[node->id()]};
      node->start(*this);
    } else {
      node->start(*this);
    }
  }
}

void Network::dispatch(NodeId receiver, const Packet& packet) {
  if (receiver < nodes_.size() && nodes_[receiver] != nullptr) {
    nodes_[receiver]->handle_packet(*this, packet);
  }
}

}  // namespace ldke::net
