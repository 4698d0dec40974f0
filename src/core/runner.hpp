#pragma once
/// \file runner.hpp
/// Builds a complete deployment — simulator, topology, network, base
/// station, provisioned sensor nodes — and drives the protocol phases.
/// This is the main entry point of the library: examples, tests and the
/// figure benches all run trials through ProtocolRunner.

#include <memory>
#include <optional>
#include <vector>

#include "core/base_station.hpp"
#include "core/config.hpp"
#include "core/provisioning.hpp"
#include "core/sensor_node.hpp"
#include "crypto/obs.hpp"
#include "net/network.hpp"
#include "obs/delivery.hpp"
#include "obs/span.hpp"
#include "sim/simulator.hpp"

namespace ldke::core {

struct RunnerConfig {
  std::size_t node_count = 2000;  ///< deployed sensors (paper: 2000–3600)
  double density = 10.0;          ///< mean neighbors per node
  double side_m = 1000.0;         ///< deployment square side
  std::uint64_t seed = 1;         ///< determines placement, timers, keys
  bool with_base_station = true;  ///< node 0 doubles as the base station
  ProtocolConfig protocol;
  net::ChannelConfig channel;
  net::EnergyConfig energy;
  /// Simulator lane count.  lanes=1 (default) runs every event inline;
  /// lanes>1 requires the lane-incompatible channel models (loss,
  /// collisions, CSMA) to be off and is clamped back to 1 with a warning
  /// otherwise.
  sim::KernelConfig kernel;
};

class ProtocolRunner {
 public:
  explicit ProtocolRunner(RunnerConfig config);

  /// Phase 1+2 (§IV-B): election, link establishment, master-key erase.
  /// Runs the simulator just past the erase deadline.
  void run_key_setup();

  /// Floods the routing gradient from the base station and lets it
  /// settle.  Requires run_key_setup() first and a base station.
  void run_routing_setup(double settle_s = 1.0);

  /// Advances simulated time by \p seconds (drains due events).
  void run_for(double seconds);

  /// §IV-C's primary refresh: a full re-clustering round over the
  /// current cluster keys (new heads, new clusters, new keys), followed
  /// by an atomic key-set swap and a fresh routing round.  Uses the same
  /// phase timings as the original setup.
  void run_recluster_round();

  // ---- accessors ----
  [[nodiscard]] sim::Simulator& sim() noexcept { return sim_; }
  [[nodiscard]] net::Network& network() noexcept { return *network_; }
  [[nodiscard]] const net::Network& network() const noexcept {
    return *network_;
  }
  [[nodiscard]] const RunnerConfig& config() const noexcept { return config_; }
  [[nodiscard]] const DeploymentSecrets& roots() const noexcept {
    return roots_;
  }

  [[nodiscard]] BaseStation* base_station() noexcept { return base_station_; }
  [[nodiscard]] SensorNode& node(net::NodeId id) { return *nodes_.at(id); }
  [[nodiscard]] const SensorNode& node(net::NodeId id) const {
    return *nodes_.at(id);
  }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] const std::vector<std::unique_ptr<SensorNode>>& nodes()
      const noexcept {
    return nodes_;
  }

  /// §IV-E: deploys and starts a brand-new node (provisioned with KMC) at
  /// \p pos.  Caller advances the simulator to let the join complete.
  SensorNode& deploy_new_node(net::Vec2 pos);

  // ---- observability ----
  /// Sim-time spans of the protocol phases driven through this runner
  /// (key_setup with election/link_establishment sub-windows, routing,
  /// run, recluster).
  [[nodiscard]] const obs::PhaseTimeline& timeline() const noexcept {
    return timeline_;
  }
  /// Mutable timeline handle for external drivers: the steady-state
  /// DataPlaneEngine records its own "steady_state" span here.
  [[nodiscard]] obs::PhaseTimeline& timeline() noexcept { return timeline_; }
  /// End-to-end DATA latency samples (origination at the source through
  /// acceptance at the base station).
  [[nodiscard]] const obs::DeliveryTracker& deliveries() const noexcept {
    return delivery_tracker_;
  }
  /// Deployment-wide crypto totals: the runner residual plus every
  /// node's attributed counters.
  [[nodiscard]] crypto::CryptoCounters crypto_totals() const noexcept {
    crypto::CryptoCounters total = crypto_residual_;
    for (const auto& node : nodes_) total += node->crypto_stats();
    return total;
  }

 private:
  /// After a multi-lane run: folds per-lane crypto residuals and metric
  /// registries back into the main ones (in lane order — integer adds,
  /// so the totals are independent of lane count) and publishes the
  /// simulator's window/halo/balance figures as gauges.
  void fold_lane_state();

  RunnerConfig config_;
  /// The one ProtocolConfig instance every node of this deployment
  /// references (nodes hold shared_ptr copies, not 136-byte values).
  std::shared_ptr<const ProtocolConfig> protocol_;
  sim::Simulator sim_;
  DeploymentSecrets roots_;
  crypto::Key128 commitment_;
  crypto::Key128 mutesla_commitment_;
  /// Per-lane crypto sinks for event work not attributed to a node;
  /// folded into crypto_residual_ after each run.
  std::vector<crypto::CryptoCounters> lane_crypto_;
  std::optional<net::Network> network_;
  std::vector<std::unique_ptr<SensorNode>> nodes_;
  BaseStation* base_station_ = nullptr;
  obs::PhaseTimeline timeline_;
  obs::DeliveryTracker delivery_tracker_;
  crypto::CryptoCounters crypto_residual_;
};

}  // namespace ldke::core
