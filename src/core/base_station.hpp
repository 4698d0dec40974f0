#pragma once
/// \file base_station.hpp
/// The trusted base station.  Participates in cluster-key setup like any
/// node (it knows Km and has a position), is the routing-gradient root,
/// verifies Step-1 end-to-end protection with the per-node keys Ki it can
/// reconstruct from the deployment roots (§IV-A), and issues hash-chain
/// authenticated revocation commands (§IV-D).

#include <vector>

#include "core/mutesla.hpp"
#include "core/provisioning.hpp"
#include "core/sensor_node.hpp"
#include "crypto/keychain.hpp"
#include "support/flat_map.hpp"

namespace ldke::core {

/// A sensor reading accepted by the base station.
struct Reading {
  net::NodeId source = net::kNoNode;
  support::Bytes payload;
  sim::SimTime received_at;
  bool was_e2e_protected = false;
};

class BaseStation : public SensorNode {
 public:
  BaseStation(NodeSecrets secrets, const ProtocolConfig& config,
              DeploymentSecrets roots);

  /// Deployment-shared configuration (see SensorNode's equivalent).
  BaseStation(NodeSecrets secrets,
              std::shared_ptr<const ProtocolConfig> config,
              DeploymentSecrets roots);

  /// Readings that passed every check, in arrival order.
  [[nodiscard]] const std::vector<Reading>& readings() const noexcept {
    return readings_;
  }

  [[nodiscard]] std::uint64_t e2e_auth_failures() const noexcept {
    return e2e_auth_failures_;
  }
  [[nodiscard]] std::uint64_t counter_violations() const noexcept {
    return counter_violations_;
  }

  /// §IV-D: floods an authenticated command revoking the given clusters.
  /// Returns false when the hash chain is exhausted.
  bool revoke_clusters(net::Network& net,
                       const std::vector<ClusterId>& cids);

  [[nodiscard]] const crypto::KeyChain& revocation_chain() const noexcept {
    return chain_;
  }

  // ---- µTESLA command channel (reference [6]) ----
  /// Starts the periodic interval-key disclosures (one broadcast per
  /// interval until the chain runs out).
  void start_command_channel(net::Network& net);

  /// Broadcasts an authenticated command to the whole network.  Nodes
  /// buffer it and deliver after the interval key is disclosed.  Returns
  /// false once the chain is exhausted.
  bool broadcast_command(net::Network& net,
                         std::span<const std::uint8_t> payload);

  [[nodiscard]] const MuTeslaBroadcaster& command_broadcaster() const noexcept {
    return mutesla_;
  }

 protected:
  void on_delivered(net::Network& net, const wsn::DataInner& inner) override;

 private:
  void emit_disclosure(net::Network& net);

  DeploymentSecrets roots_;
  crypto::KeyChain chain_;
  MuTeslaBroadcaster mutesla_;
  std::uint32_t last_disclosed_interval_ = 0;
  /// Ki per source that has sent a Step-1 reading: re-deriving it for
  /// every reading would add a counted F.  An entry also says the base
  /// station has charged the build of that Ki's context; every later
  /// reading reuses the per-thread context memo uncounted.
  support::FlatMap<net::NodeId, crypto::Key128, 0> node_keys_;
  support::FlatMap<net::NodeId, std::uint64_t, 0> expected_counter_;
  std::vector<Reading> readings_;
  std::uint64_t e2e_auth_failures_ = 0;
  std::uint64_t counter_violations_ = 0;
};

}  // namespace ldke::core
