#pragma once
/// \file network.hpp
/// Glue object for one simulated deployment: topology + channel + energy
/// accounting + the registry of attached node behaviours.  Nodes are
/// owned by higher layers and registered here non-owning, so the same
/// substrate serves the LDKE protocol, every baseline scheme and the
/// attack harnesses.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "net/channel.hpp"
#include "net/node.hpp"
#include "net/packet.hpp"
#include "net/packet_trace.hpp"
#include "net/topology.hpp"
#include "obs/audit.hpp"
#include "obs/delivery.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace ldke::net {

/// Radio lifecycle of a deployed node, driven by the scenario layer.
/// Everything historical runs with every node kActive; the other states
/// gate the channel (no rx, no tx) without destroying the behaviour
/// object — in-flight events may still reference it.
enum class RadioState : std::uint8_t {
  kActive,  ///< normal operation
  kAsleep,  ///< duty-cycled off: hears nothing, transmits nothing
  kGone,    ///< left or failed: permanently off, behaviour detached
};

class Network {
 public:
  /// Takes its lane count from \p sim: with more than one lane the
  /// deployment is partitioned into that many vertical strips (by x
  /// position), each with its own metric registry, and the channel
  /// delivers across strips as halo events.
  Network(sim::Simulator& sim, Topology topology, ChannelConfig channel_cfg = {},
          EnergyConfig energy_cfg = {});

  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] const Topology& topology() const noexcept { return topology_; }
  [[nodiscard]] Channel& channel() noexcept { return channel_; }
  [[nodiscard]] EnergyModel& energy() noexcept { return energy_; }

  /// The calling lane's metric registry.  Each lane has its own
  /// (counter increments from node event handlers stay lane-local);
  /// fold_lane_metrics() folds lanes 1.. into lane 0's, the trial's
  /// registry, after a run.
  [[nodiscard]] obs::MetricRegistry& counters() noexcept {
    return lane_counters_[sim::Simulator::current_lane()];
  }

  // ---- spatial lanes ---------------------------------------------------

  /// Home lane of \p id (0 at one lane).
  [[nodiscard]] std::uint32_t lane_of(NodeId id) const noexcept {
    return id < lane_of_.size() ? lane_of_[id] : 0;
  }

  /// Folds the per-lane registries into lane 0's, in lane order (so the
  /// result is independent of thread scheduling).  Idempotent.
  void fold_lane_metrics();

  /// Optional end-to-end DATA delivery tracker; protocol layers call
  /// these at origination (a reading leaves its source) and delivery
  /// (the final destination authenticates it).  No-ops when unset.
  void set_delivery_tracker(obs::DeliveryTracker* tracker) noexcept {
    delivery_tracker_ = tracker;
  }
  [[nodiscard]] obs::DeliveryTracker* delivery_tracker() noexcept {
    return delivery_tracker_;
  }

  /// Optional security-audit event stream.  The sink is sized to the
  /// lane count on attach, so protocol layers emit through audit() with
  /// no lane bookkeeping.
  void set_audit_sink(obs::AuditSink* sink) {
    audit_sink_ = sink;
    if (sink != nullptr) sink->enable_lanes(lane_count());
  }
  [[nodiscard]] obs::AuditSink* audit_sink() noexcept { return audit_sink_; }

  /// Records one protocol lifecycle event at the current sim time.  A
  /// single predictable branch when no sink is attached — cheap enough
  /// for per-envelope sites like replay rejection.
  void audit(obs::AuditKind kind, std::uint32_t actor,
             std::uint32_t subject = obs::kAuditNoSubject,
             std::uint64_t arg = 0) {
    if (audit_sink_ == nullptr) return;
    audit_sink_->record(record_lane(),
                        {sim_.now().ns(), actor, subject, arg, kind});
  }

  /// Optional packet trace, fed one record per transmission by the
  /// channel's sniffer (replacing any sniffer installed before) and
  /// sized to the lanes like the audit sink.  nullptr detaches it.
  void set_packet_trace(PacketTrace* trace);

  /// Shard index the record logs (audit sink, packet trace) write to
  /// from the calling thread: its lane.
  [[nodiscard]] static std::size_t record_lane() noexcept {
    return sim::Simulator::current_lane();
  }
  [[nodiscard]] std::size_t lane_count() const noexcept {
    return lane_counters_.size();
  }

  // ---- scenario radio state (mobility / churn / duty cycling) ---------

  /// Current radio state; nodes never touched by a scenario are active.
  [[nodiscard]] RadioState radio_state(NodeId id) const noexcept {
    return id < radio_state_.size() ? radio_state_[id] : RadioState::kActive;
  }
  [[nodiscard]] bool is_active(NodeId id) const noexcept {
    return radio_state(id) == RadioState::kActive;
  }

  /// Duty cycling: an asleep radio neither receives (frames in flight
  /// drop as `pkt.dropped_gone`) nor transmits (`pkt.tx_gated`).  No-op
  /// on a node that already left.
  void set_asleep(NodeId id, bool asleep);

  /// Churn: the node left the network (gracefully or by failure).  Its
  /// behaviour is detached so nothing ever dispatches into the slot
  /// again; the id is never recycled.
  void mark_gone(NodeId id);

  /// Scripted partition: a vertical wall at \p x blocks every link that
  /// crosses it (checked against current positions at transmit time).
  void set_partition_x(double x);
  /// Heal event: removes the partition wall.
  void clear_partition() noexcept { partition_x_.reset(); }
  [[nodiscard]] std::optional<double> partition_x() const noexcept {
    return partition_x_;
  }

  /// Mobility epoch: moves only the listed nodes and patches the
  /// topology in place (see Topology::apply_displacements).
  void apply_displacements(std::span<const NodeId> moved,
                           std::span<const Vec2> new_positions) {
    topology_.apply_displacements(moved, new_positions);
  }

  /// Registers the behaviour for an existing topology slot.
  void attach(Node& node);

  /// Deploys a brand-new node at \p pos (used by §IV-E node addition):
  /// extends the topology, then the caller constructs a Node with the
  /// returned id and attaches it.
  NodeId deploy_position(Vec2 pos);

  [[nodiscard]] Node* node(NodeId id) noexcept {
    return id < nodes_.size() ? nodes_[id] : nullptr;
  }

  /// Calls start() on every attached node (in id order).
  void start_all();

  /// Broadcasts a packet from its sender to all radio neighbors.  A
  /// sender whose radio is asleep or gone transmits nothing (timers may
  /// still fire inside a sleeping node; the frame dies at the antenna
  /// and counts as `pkt.tx_gated`).
  void broadcast(const Packet& packet) {
    if (scenario_gating_ && !is_active(packet.sender)) {
      counters().increment(obs::Counter::kPktTxGated);
      return;
    }
    channel_.broadcast(packet);
  }

 private:
  void dispatch(NodeId receiver, const Packet& packet);

  [[nodiscard]] std::uint32_t lane_for_position(Vec2 pos) const noexcept;

  /// Installs the channel's delivery gate the first time any node goes
  /// non-active — the gate std::function stays off the hot path for
  /// every static deployment.
  void ensure_scenario_gating();

  sim::Simulator& sim_;
  Topology topology_;
  EnergyModel energy_;
  // Lane state, built before the channel that counts and routes by it.
  std::vector<obs::MetricRegistry> lane_counters_;  ///< [0] = the trial's
  std::vector<std::uint32_t> lane_of_;  ///< node id -> lane; empty at one
  Channel channel_;
  std::vector<Node*> nodes_;
  obs::DeliveryTracker* delivery_tracker_ = nullptr;
  obs::AuditSink* audit_sink_ = nullptr;
  PacketTrace* packet_trace_ = nullptr;
  // Scenario state (empty / unset on static deployments).
  std::vector<RadioState> radio_state_;  ///< empty = everyone active
  std::optional<double> partition_x_;
  bool scenario_gating_ = false;
};

}  // namespace ldke::net
