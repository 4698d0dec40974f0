/// \file recluster.cpp
/// §IV-C's primary key-refresh mode: periodically repeat the whole
/// cluster key setup.  Since Km was erased after deployment, every round
/// message travels inside a hop envelope sealed under the sender's
/// *current* cluster key — which every radio neighbor can open through
/// its key set S, exactly the property phase 2 of the original setup
/// established.  The new key set is built on the side and swapped in
/// atomically when the round ends, so data traffic keeps flowing under
/// the old keys for the whole round.

#include <algorithm>

#include "core/sensor_node.hpp"
#include "crypto/authenc.hpp"

namespace ldke::core {

using net::Packet;
using net::PacketKind;

void SensorNode::broadcast_under_current_key(
    net::Network& net, PacketKind kind, std::span<const std::uint8_t> body,
    net::NodeId next_hop) {
  const auto ctx = keys_.context_for(keys_.own_cid());
  if (!ctx) return;  // no cluster key (e.g. just evicted)
  wsn::DataHeader header;
  header.cid = keys_.own_cid();
  header.next_hop = next_hop;
  header.nonce = next_nonce(net);
  const support::Bytes header_bytes = wsn::encode(header);
  const support::Bytes sealed = ctx->seal(header.nonce, body, header_bytes);
  Packet pkt;
  pkt.sender = id();
  pkt.kind = kind;
  pkt.payload = wsn::join_envelope(header_bytes, sealed);
  net.broadcast(pkt);
}

void SensorNode::begin_recluster(net::Network& net) {
  if (!keys_.has_own() || role_ == Role::kEvicted) {
    // A keyless node sits the round out — but a §IV-E join in flight is
    // void now: every candidate key it buffered advertises material that
    // dies at the coming swap (heads draw fresh keys, possibly under a
    // recurring cid).  Drop the buffer so the already-scheduled
    // commit_join takes its empty-candidates retry path and collects
    // fresh replies under the new epoch.
    join_candidates_.clear();
    return;
  }
  recluster_active_ = true;
  recluster_decided_ = false;
  recluster_head_ = false;
  if (recluster_keys_) {
    recluster_keys_->clear();
  } else {
    recluster_keys_ = std::make_unique<ClusterKeySet>();
  }
  recluster_messages_sent_ = 0;

  auto& rng = net.sim().rng();
  const double delay =
      std::min(rng.exponential(1.0 / config().mean_election_delay_s),
               config().election_deadline_s * 0.999);
  recluster_timer_ = net.sim().schedule_in(
      sim::SimTime::from_seconds(delay),
      [this, &net] { on_recluster_timer(net); });
}

void SensorNode::on_recluster_timer(net::Network& net) {
  recluster_timer_ = sim::kInvalidEventId;
  if (!recluster_active_ || recluster_decided_) return;
  // Become a head of the new epoch with a *fresh* key from the node's
  // embedded generator ("created by a secure key generation algorithm
  // embedded in each node", §IV-C).
  recluster_decided_ = true;
  recluster_head_ = true;
  recluster_keys_->set_own(id(), drbg().next_key());

  const wsn::HelloBody body{id(), recluster_keys_->own_key()};
  broadcast_under_current_key(net, PacketKind::kReclusterHello,
                              wsn::encode(body));
  ++recluster_messages_sent_;
  net.counters().increment(obs::Counter::kReclusterHelloSent);
}

void SensorNode::on_recluster_hello(net::Network& net, const Packet& packet) {
  if (!recluster_active_) return;
  wsn::DataHeader header;
  const auto plain = open_envelope(net, packet, header);
  if (!plain) return;
  const auto body = wsn::decode<wsn::HelloBody>(*plain);
  if (!body || body->head_id != packet.sender) {
    net.counters().increment(obs::Counter::kReclusterMalformed);
    return;
  }
  if (recluster_decided_) return;  // decided nodes reject (§IV-B.1)
  recluster_decided_ = true;
  recluster_keys_->set_own(body->head_id, body->cluster_key);
  if (recluster_timer_ != sim::kInvalidEventId) {
    net.sim().cancel(recluster_timer_);
    recluster_timer_ = sim::kInvalidEventId;
  }
  net.counters().increment(obs::Counter::kReclusterJoined);
}

void SensorNode::send_recluster_link_advert(net::Network& net) {
  if (!recluster_active_ || !recluster_keys_->has_own()) return;
  const wsn::LinkAdvertBody body{recluster_keys_->own_cid(),
                                 recluster_keys_->own_key()};
  broadcast_under_current_key(net, PacketKind::kReclusterLink,
                              wsn::encode(body));
  ++recluster_messages_sent_;
  net.counters().increment(obs::Counter::kReclusterLinkSent);
}

void SensorNode::on_recluster_link(net::Network& net, const Packet& packet) {
  if (!recluster_active_) return;
  wsn::DataHeader header;
  const auto plain = open_envelope(net, packet, header);
  if (!plain) return;
  const auto body = wsn::decode<wsn::LinkAdvertBody>(*plain);
  if (!body) {
    net.counters().increment(obs::Counter::kReclusterMalformed);
    return;
  }
  if (recluster_keys_->has_own() && body->cid == recluster_keys_->own_cid()) {
    return;
  }
  if (recluster_keys_->add_neighbor(body->cid, body->cluster_key)) {
    net.counters().increment(obs::Counter::kReclusterNeighborKeyStored);
  }
}

void SensorNode::finish_recluster(net::Network& net) {
  if (!recluster_active_) return;
  recluster_active_ = false;
  // The at-most-once join-reply guard is scoped to a key epoch: reset it
  // with the swap so a joiner whose round-straddling attempt was voided
  // can be answered again under the new keys.
  join_replied_.clear();
  if (!recluster_keys_->has_own()) {
    // Round failed locally (e.g. isolated node whose HELLO channel was
    // lossy): keep the old keys rather than going dark.
    recluster_keys_.reset();
    net.counters().increment(obs::Counter::kReclusterKeptOldKeys);
    return;
  }
  keys_ = std::move(*recluster_keys_);
  recluster_keys_.reset();
  was_head_ = recluster_head_;
  // A §IV-E late joiner that took part in a full round now has a key set
  // indistinguishable from an original node's.
  joined_late_ = false;
  // The gradient's parent pointers survive, but the parent's cluster
  // changed; refresh the wrap-key hint lazily from the next beacon.
  parent_cid_ = kNoCluster;
  net.counters().increment(obs::Counter::kReclusterSwapped);
}

}  // namespace ldke::core
