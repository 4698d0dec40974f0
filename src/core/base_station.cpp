#include "core/base_station.hpp"

#include "crypto/authenc.hpp"
#include "crypto/prf.hpp"
#include "crypto/seal_context.hpp"

namespace ldke::core {

BaseStation::BaseStation(NodeSecrets secrets, const ProtocolConfig& config,
                         DeploymentSecrets roots)
    : BaseStation(std::move(secrets),
                  std::make_shared<const ProtocolConfig>(config),
                  std::move(roots)) {}

BaseStation::BaseStation(NodeSecrets secrets,
                         std::shared_ptr<const ProtocolConfig> config,
                         DeploymentSecrets roots)
    : SensorNode(std::move(secrets), std::move(config)),
      roots_(std::move(roots)),
      chain_(roots_.chain_seed, this->config().revocation_chain_length),
      mutesla_(mutesla_seed_of(roots_), this->config().mutesla,
               sim::SimTime::zero()) {}

void BaseStation::emit_disclosure(net::Network& net) {
  const auto disclosure = mutesla_.disclosure_at(net.sim().now());
  if (disclosure && disclosure->interval > last_disclosed_interval_) {
    last_disclosed_interval_ = disclosure->interval;
    net.broadcast(net::Packet{id(), net::PacketKind::kKeyDisclosure,
                              wsn::encode(*disclosure)});
    net.counters().increment("mutesla.disclosed");
  }
  // Keep ticking until the chain is spent.
  if (last_disclosed_interval_ < config().mutesla.chain_length) {
    net.sim().schedule_in(
        sim::SimTime::from_seconds(config().mutesla.interval_s),
        [this, &net] { emit_disclosure(net); });
  }
}

void BaseStation::start_command_channel(net::Network& net) {
  emit_disclosure(net);
}

bool BaseStation::broadcast_command(net::Network& net,
                                    std::span<const std::uint8_t> payload) {
  crypto::ScopedCryptoCounters obs_guard{crypto_account()};
  const auto cmd = mutesla_.make_command(net.sim().now(), payload);
  if (!cmd) return false;
  net.broadcast(
      net::Packet{id(), net::PacketKind::kAuthBroadcast, wsn::encode(*cmd)});
  net.counters().increment("mutesla.command_sent");
  return true;
}

void BaseStation::on_delivered(net::Network& net,
                               const wsn::DataInner& inner) {
  Reading reading;
  reading.source = inner.source;
  reading.received_at = net.sim().now();
  reading.was_e2e_protected = inner.e2e_encrypted != 0;

  if (inner.e2e_encrypted != 0) {
    // §IV-C Step 1 verification: reconstruct Ki from the deployment
    // roots, check the counter window, then open the envelope.
    auto& expected = expected_counter_[inner.source];
    if (inner.e2e_counter < expected ||
        inner.e2e_counter >= expected + config().counter_window) {
      ++counter_violations_;
      net.counters().increment("bs.counter_violation");
      return;
    }
    const auto [ki, first] = node_keys_.try_emplace(inner.source);
    if (first) ki->second = node_key_of(roots_, inner.source);
    const crypto::SealContext ctx =
        first ? crypto::SealContext{ki->second}
              : crypto::SealContext::reuse(ki->second);
    auto plain = ctx.open(inner.e2e_counter, inner.body);
    if (!plain) {
      ++e2e_auth_failures_;
      net.counters().increment("bs.e2e_auth_fail");
      return;
    }
    expected = inner.e2e_counter + 1;
    reading.payload = std::move(*plain);
  } else {
    reading.payload = inner.body;
  }
  readings_.push_back(std::move(reading));
  net.counters().increment("bs.reading_accepted");
  if (obs::DeliveryTracker* tracker = net.delivery_tracker()) {
    tracker->on_deliver(inner.source, inner.e2e_counter, net.sim().now().ns());
  }
}

bool BaseStation::revoke_clusters(net::Network& net,
                                  const std::vector<ClusterId>& cids) {
  crypto::ScopedCryptoCounters obs_guard{crypto_account()};
  const auto element = chain_.reveal_next();
  if (!element) return false;
  wsn::RevokeBody body;
  body.revoked_cids = cids;
  body.chain_element = *element;
  body.tag = wsn::revoke_tag(*element, cids);
  net.broadcast(
      net::Packet{id(), net::PacketKind::kRevoke, wsn::encode(body)});
  net.counters().increment("revoke.issued");
  for (const ClusterId cid : cids) {
    net.audit(obs::AuditKind::kEvictionIssued, id(), cid);
  }
  return true;
}

}  // namespace ldke::core
