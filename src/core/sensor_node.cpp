#include "core/sensor_node.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "crypto/authenc.hpp"
#include "crypto/hmac.hpp"
#include "crypto/prf.hpp"
#include "wsn/wire.hpp"

namespace ldke::core {

namespace {

using net::Packet;
using net::PacketKind;

/// Nonce for a one-shot setup message sealed under Km: unique per
/// (kind, sender) since each node sends each setup message at most once.
constexpr std::uint64_t setup_nonce(PacketKind kind, net::NodeId id) noexcept {
  return (std::uint64_t{static_cast<std::uint8_t>(kind)} << 32) | id;
}

/// A holder's context for one of its own keys: the first use charges the
/// build, every later one reuses the memo uncounted (crypto/obs.hpp).
crypto::SealContext held_context(const crypto::Key128& key, bool& built) {
  if (std::exchange(built, true)) return crypto::SealContext::reuse(key);
  return crypto::SealContext{key};
}

}  // namespace

SensorNode::SensorNode(NodeSecrets secrets, const ProtocolConfig& config)
    : SensorNode(std::move(secrets),
                 std::make_shared<const ProtocolConfig>(config)) {}

SensorNode::SensorNode(NodeSecrets secrets,
                       std::shared_ptr<const ProtocolConfig> config)
    : net::Node(secrets.id),
      secrets_(std::move(secrets)),
      config_(std::move(config)),
      chain_(secrets_.commitment) {}

crypto::Drbg& SensorNode::drbg() {
  if (!drbg_) {
    drbg_ = std::make_unique<crypto::Drbg>(
        crypto::prf_u64(secrets_.node_key, 0xd5b9));
  }
  return *drbg_;
}

MuTeslaReceiver& SensorNode::ensure_mutesla() {
  if (!mutesla_) {
    mutesla_ = std::make_unique<MuTeslaReceiver>(
        secrets_.mutesla_commitment, config().mutesla, sim::SimTime::zero());
    mutesla_->set_delivery_handler(
        [this](std::uint32_t seq, const support::Bytes& payload) {
          received_commands_.emplace_back(seq, payload);
        });
  }
  return *mutesla_;
}

crypto::SealContext SensorNode::master_context() {
  return held_context(secrets_.master_key, master_built_);
}

void SensorNode::start(net::Network& net) {
  if (secrets_.has_kmc) {
    start_join(net);
    return;
  }
  // §IV-B.1: wait a random exponential time before declaring cluster
  // headship.  Truncated to the deadline so the phase terminates.
  auto& rng = net.sim().rng();
  const double delay = std::min(
      rng.exponential(1.0 / config().mean_election_delay_s),
      config().election_deadline_s * 0.999);
  election_timer_ = net.sim().schedule_at(
      sim::SimTime::from_seconds(delay),
      [this, &net] { on_election_timer(net); });

  // The advert is idempotent (same bytes each repeat — deliberately the
  // same nonce, so a re-send is a verbatim re-broadcast, not a second
  // encryption), so repeats only fight loss/collisions.  Each repeat
  // gets its own jitter window: piling them into one window would raise
  // contention instead of fixing it.
  const std::uint32_t repeats = std::max(1u, config().link_advert_repeats);
  for (std::uint32_t k = 0; k < repeats; ++k) {
    const double window_start = config().link_phase_start_s +
                                k * config().link_phase_jitter_s;
    const double link_at =
        window_start + rng.uniform(0.0, config().link_phase_jitter_s);
    if (k + 1 < repeats) {
      net.sim().schedule_at(sim::SimTime::from_seconds(link_at),
                            [this, &net] { send_link_advert(net); });
    } else {
      // The Km erase is chained off the last advert rather than scheduled
      // up front: every node parking a third event for the whole phase
      // put an extra N slots in the scheduler's high-water slab.  The
      // erase still fires at the absolute §IV-B deadline (all erases are
      // local no-op ties among themselves, so their relative order is
      // irrelevant).
      net.sim().schedule_at(sim::SimTime::from_seconds(link_at),
                            [this, &net] {
                              send_link_advert(net);
                              schedule_master_erase(net);
                            });
    }
  }
}

void SensorNode::schedule_master_erase(net::Network& net) {
  const auto erase_at = std::max(
      net.sim().now(), sim::SimTime::from_seconds(config().master_erase_s));
  net.sim().schedule_at(erase_at, [this] {
    // The node keeps no Km context of its own, so erasing Km erases all
    // it holds of it (§IV-B).
    master_built_ = false;
    secrets_.erase_master();
  });
}

void SensorNode::on_election_timer(net::Network& net) {
  election_timer_ = sim::kInvalidEventId;
  if (role_ != Role::kUndecided) return;
  crypto::ScopedCryptoCounters obs_guard{crypto_stats_};
  // Become a cluster head: my pre-loaded Kci is now the cluster key and
  // my id the cluster id.
  role_ = Role::kHead;
  was_head_ = true;
  keys_.set_own(id(), secrets_.cluster_key);
  net.audit(obs::AuditKind::kKeyEstablished, id(), id());

  const wsn::HelloBody body{id(), secrets_.cluster_key};
  Packet pkt;
  pkt.sender = id();
  pkt.kind = PacketKind::kHello;
  pkt.payload = master_context().seal(setup_nonce(PacketKind::kHello, id()),
                                      wsn::encode(body));
  net.broadcast(pkt);
  ++setup_messages_sent_;
  net.counters().increment("setup.hello_sent");
}

void SensorNode::on_hello(net::Network& net, const Packet& packet) {
  if (secrets_.master_erased() || secrets_.has_kmc) return;
  const auto plain =
      master_context().open(setup_nonce(PacketKind::kHello, packet.sender),
                            packet.payload);
  if (!plain) {
    net.counters().increment("setup.hello_auth_fail");
    return;
  }
  const auto body = wsn::decode<wsn::HelloBody>(*plain);
  if (!body || body->head_id != packet.sender) {
    net.counters().increment("setup.hello_malformed");
    return;
  }
  // §IV-B.1: only undecided nodes react; decided nodes reject.
  if (role_ != Role::kUndecided) return;
  role_ = Role::kMember;
  keys_.set_own(body->head_id, body->cluster_key);
  net.audit(obs::AuditKind::kMemberJoined, id(), body->head_id);
  if (election_timer_ != sim::kInvalidEventId) {
    net.sim().cancel(election_timer_);
    election_timer_ = sim::kInvalidEventId;
  }
  net.counters().increment("setup.joined");
}

void SensorNode::send_link_advert(net::Network& net) {
  if (secrets_.master_erased() || !keys_.has_own()) return;
  crypto::ScopedCryptoCounters obs_guard{crypto_stats_};
  // §IV-B.2: every node broadcasts its cluster's (CID, Kc) under Km so
  // that bordering nodes of other clusters can translate traffic.
  const wsn::LinkAdvertBody body{keys_.own_cid(), keys_.own_key()};
  Packet pkt;
  pkt.sender = id();
  pkt.kind = PacketKind::kLinkAdvert;
  pkt.payload =
      master_context().seal(setup_nonce(PacketKind::kLinkAdvert, id()),
                            wsn::encode(body));
  net.broadcast(pkt);
  ++setup_messages_sent_;
  net.counters().increment("setup.link_sent");
}

void SensorNode::on_link_advert(net::Network& net, const Packet& packet) {
  if (secrets_.master_erased() || secrets_.has_kmc) return;
  const auto plain =
      master_context().open(setup_nonce(PacketKind::kLinkAdvert, packet.sender),
                            packet.payload);
  if (!plain) {
    net.counters().increment("setup.link_auth_fail");
    return;
  }
  const auto body = wsn::decode<wsn::LinkAdvertBody>(*plain);
  if (!body) {
    net.counters().increment("setup.link_malformed");
    return;
  }
  // Adverts from my own cluster are ignored (§IV-B.2).
  if (keys_.has_own() && body->cid == keys_.own_cid()) return;
  if (keys_.add_neighbor(body->cid, body->cluster_key)) {
    net.counters().increment("setup.neighbor_key_stored");
    net.audit(obs::AuditKind::kNeighborKeyStored, id(), body->cid);
  }
}

// ---------------------------------------------------------------------------
// data plane

std::uint64_t SensorNode::next_nonce(net::Network& net) {
  // The counter names every envelope this node ever wraps under a shared
  // cluster key; letting it wrap silently would reuse (key, nonce) pairs
  // and void the CTR/MAC guarantees.  §IV-C's refresh cadence keeps 2^32
  // sends per node out of reach in any real deployment, so exhaustion is
  // a configuration error, not a recoverable state.
  if (envelope_counter_ == std::numeric_limits<std::uint32_t>::max()) {
    net.audit(obs::AuditKind::kNonceWrapAbort, id(), obs::kAuditNoSubject,
              envelope_counter_);
    throw std::overflow_error("envelope nonce counter exhausted on node " +
                              std::to_string(id()) +
                              "; rekey cadence must bound sends per key");
  }
  return (std::uint64_t{id()} << 32) | ++envelope_counter_;
}

bool SensorNode::send_reading(net::Network& net,
                              std::span<const std::uint8_t> payload) {
  if (!keys_.has_own() || role_ == Role::kEvicted) return false;
  if (!routing_.has_route()) return false;
  // Duty cycling / churn: a sleeping or departed node senses nothing.
  if (!net.is_active(id())) return false;
  crypto::ScopedCryptoCounters obs_guard{crypto_stats_};

  wsn::DataInner inner;
  inner.source = id();
  // Every reading carries its sequence number, which also names it to
  // the delivery tracker.
  inner.e2e_counter = ++e2e_counter_;
  if (config().e2e_encrypt) {
    // §IV-C Step 1: E2E protection under keys derived from Ki, with the
    // shared counter providing semantic security.
    inner.e2e_encrypted = 1;
    inner.body = held_context(secrets_.node_key, node_key_built_)
                     .seal(inner.e2e_counter, payload);
  } else {
    inner.body.assign(payload.begin(), payload.end());
  }
  net.counters().increment("data.originated");
  if (obs::DeliveryTracker* tracker = net.delivery_tracker()) {
    tracker->on_originate(id(), inner.e2e_counter, net.sim().now().ns());
  }
  forward_inner(net, std::move(inner));
  return true;
}

void SensorNode::forward_inner(net::Network& net, wsn::DataInner inner) {
  // §IV-C Step 2: wrap under this node's cluster key; one broadcast
  // serves all neighbors.  A late-joined node (§IV-E) instead uses its
  // routing parent's cluster key from S — the only key it provably
  // shares with its forwarder (see parent_cid_).
  ClusterId wrap_cid = keys_.own_cid();
  if (joined_late_ && parent_cid_ != kNoCluster &&
      keys_.key_for(parent_cid_).has_value()) {
    wrap_cid = parent_cid_;
  }
  inner.tau_ns = net.sim().now().ns();
  inner.echoed_cid = wrap_cid;

  wsn::DataHeader header;
  header.cid = wrap_cid;
  header.next_hop = routing_.parent();
  header.nonce = next_nonce(net);

  const support::Bytes header_bytes = wsn::encode(header);
  const support::Bytes sealed = keys_.context_for(wrap_cid)->seal(
      header.nonce, wsn::encode(inner), header_bytes);
  net.broadcast(Packet{id(), PacketKind::kData,
                       wsn::join_envelope(header_bytes, sealed)});
  net.counters().increment("data.hop_tx");
}

std::optional<support::Bytes> SensorNode::open_envelope(
    net::Network& net, const Packet& packet, wsn::DataHeader& header) {
  // Zero-copy receive: the envelope is split into views over the shared
  // payload buffer; only the decrypted plaintext is materialized.
  const auto env = wsn::split_envelope(packet.payload);
  if (!env) {
    net.counters().increment("envelope.malformed");
    return std::nullopt;
  }
  header = env->header;
  const auto ctx = keys_.context_for(header.cid);
  if (!ctx) {
    // Not a bordering cluster: cannot translate (expected for most of the
    // network — locality is the point).
    net.counters().increment("envelope.no_key");
    return std::nullopt;
  }
  auto plain = ctx->open(header.nonce, env->sealed, env->header_bytes);
  if (!plain) {
    net.counters().increment("envelope.auth_fail");
    return std::nullopt;
  }
  return plain;
}

bool SensorNode::accept_envelope(net::Network& net, const Packet& packet,
                                 const wsn::DataHeader& header,
                                 std::int64_t tau_ns, ClusterId echoed_cid) {
  if (echoed_cid != header.cid) {
    net.counters().increment("envelope.cid_mismatch");
    return false;
  }
  const std::int64_t now_ns = net.sim().now().ns();
  const auto window_ns =
      static_cast<std::int64_t>(config().freshness_window_s * 1e9);
  if (tau_ns > now_ns + window_ns || tau_ns < now_ns - window_ns) {
    net.counters().increment("envelope.stale");
    return false;
  }
  auto& last = last_nonce_[packet.sender];
  if (header.nonce <= last) {
    net.counters().increment("envelope.replay");
    net.audit(obs::AuditKind::kReplayRejected, id(), packet.sender,
              header.nonce);
    return false;
  }
  last = header.nonce;
  return true;
}

void SensorNode::on_data(net::Network& net, const Packet& packet) {
  wsn::DataHeader header;
  const auto plain = open_envelope(net, packet, header);
  if (!plain) return;
  const auto inner = wsn::decode<wsn::DataInner>(*plain);
  if (!inner) {
    net.counters().increment("envelope.malformed");
    return;
  }
  if (!accept_envelope(net, packet, header, inner->tau_ns, inner->echoed_cid)) {
    return;
  }
  // At this point the node has authenticated and decrypted the hop
  // envelope: it can "peek" at the (possibly Step-1-protected) content
  // for data-fusion decisions (§II).
  net.counters().increment("data.peek_ok");
  if (role_ == Role::kEvicted) return;
  if (header.next_hop != id()) return;  // overheard, not the forwarder

  if (fusion_filter_ && !fusion_filter_(*inner)) {
    net.counters().increment("data.fusion_dropped");
    return;
  }
  if (forward_drop_probability_ > 0.0 &&
      net.sim().rng().bernoulli(forward_drop_probability_)) {
    net.counters().increment("data.maliciously_dropped");
    return;
  }
  if (routing_.hop() == 0) {
    on_delivered(net, *inner);
    return;
  }
  if (!routing_.has_route()) {
    net.counters().increment("data.no_route");
    return;
  }
  forward_inner(net, *inner);
}

void SensorNode::on_delivered(net::Network& net, const wsn::DataInner&) {
  // Plain sensors are never a final destination; the base station
  // subclass overrides this.
  net.counters().increment("data.misdelivered");
}

// ---------------------------------------------------------------------------
// routing beacons

void SensorNode::start_routing_root(net::Network& net) {
  routing_.make_root();
  send_beacon(net);
}

void SensorNode::send_beacon(net::Network& net) {
  beacon_pending_ = false;
  if (!keys_.has_own() || role_ == Role::kEvicted) return;
  crypto::ScopedCryptoCounters obs_guard{crypto_stats_};
  wsn::BeaconInner inner;
  inner.hop = routing_.hop();
  inner.tau_ns = net.sim().now().ns();
  inner.echoed_cid = keys_.own_cid();

  wsn::DataHeader header;
  header.cid = keys_.own_cid();
  header.next_hop = net::kNoNode;
  header.nonce = next_nonce(net);

  const support::Bytes header_bytes = wsn::encode(header);
  const support::Bytes sealed = keys_.context_for(keys_.own_cid())
                                    ->seal(header.nonce, wsn::encode(inner),
                                           header_bytes);

  Packet pkt;
  pkt.sender = id();
  pkt.kind = PacketKind::kBeacon;
  pkt.payload = wsn::join_envelope(header_bytes, sealed);
  net.broadcast(pkt);
  net.counters().increment("routing.beacon_tx");
}

void SensorNode::schedule_beacon(net::Network& net) {
  if (beacon_pending_) return;
  beacon_pending_ = true;
  const double jitter =
      net.sim().rng().uniform(0.0, config().beacon_jitter_s);
  net.sim().schedule_in(sim::SimTime::from_seconds(jitter),
                        [this, &net] { send_beacon(net); });
}

void SensorNode::on_beacon(net::Network& net, const Packet& packet) {
  wsn::DataHeader header;
  const auto plain = open_envelope(net, packet, header);
  if (!plain) return;
  const auto inner = wsn::decode<wsn::BeaconInner>(*plain);
  if (!inner) {
    net.counters().increment("envelope.malformed");
    return;
  }
  if (!accept_envelope(net, packet, header, inner->tau_ns, inner->echoed_cid)) {
    return;
  }
  if (role_ == Role::kEvicted) return;
  if (routing_.offer(packet.sender, inner->hop)) {
    parent_cid_ = header.cid;  // the parent's own cluster
    schedule_beacon(net);
  }
}

// ---------------------------------------------------------------------------
// key refresh (§IV-C)

bool SensorNode::initiate_cluster_rekey(net::Network& net) {
  if (!keys_.has_own() || role_ == Role::kEvicted) return false;
  crypto::ScopedCryptoCounters obs_guard{crypto_stats_};
  wsn::RefreshBody body;
  body.cid = keys_.own_cid();
  body.new_key = drbg().next_key();
  body.epoch = refresh_epoch_[body.cid] + 1;

  wsn::DataHeader header;
  header.cid = body.cid;
  header.next_hop = net::kNoNode;
  header.nonce = next_nonce(net);

  const support::Bytes header_bytes = wsn::encode(header);
  // Sealed under the *current* cluster key (§IV-C: "the current cluster
  // key may be used" since Km is gone).
  const support::Bytes sealed = keys_.context_for(keys_.own_cid())
                                    ->seal(header.nonce, wsn::encode(body),
                                           header_bytes);

  Packet pkt;
  pkt.sender = id();
  pkt.kind = PacketKind::kRefresh;
  pkt.payload = wsn::join_envelope(header_bytes, sealed);
  net.broadcast(pkt);
  net.counters().increment("refresh.initiated");

  refresh_epoch_[body.cid] = body.epoch;
  keys_.replace(body.cid, body.new_key);
  net.audit(obs::AuditKind::kRefreshApplied, id(), body.cid, body.epoch);
  return true;
}

void SensorNode::on_refresh(net::Network& net, const Packet& packet) {
  wsn::DataHeader header;
  const auto plain = open_envelope(net, packet, header);
  if (!plain) return;
  const auto body = wsn::decode<wsn::RefreshBody>(*plain);
  if (!body || body->cid != header.cid) {
    net.counters().increment("refresh.malformed");
    return;
  }
  auto& epoch = refresh_epoch_[body->cid];
  if (body->epoch <= epoch) {
    net.counters().increment("refresh.replay");
    net.audit(obs::AuditKind::kRefreshReplay, id(), body->cid, body->epoch);
    return;
  }
  epoch = body->epoch;
  const auto old_key = keys_.key_for(body->cid);
  keys_.replace(body->cid, body->new_key);
  net.counters().increment("refresh.applied");
  net.audit(obs::AuditKind::kRefreshApplied, id(), body->cid, body->epoch);

  // Members re-announce once under the *old* key so that bordering
  // nodes up to two hops from the initiator (the cluster's diameter)
  // also learn the new key — the "repeat the key setup phase" step of
  // §IV-C.  The epoch check above makes the flood terminate.
  if (body->cid == keys_.own_cid() && old_key.has_value()) {
    wsn::DataHeader out;
    out.cid = body->cid;
    out.next_hop = net::kNoNode;
    out.nonce = next_nonce(net);
    const support::Bytes out_header = wsn::encode(out);
    const support::Bytes sealed = crypto::seal_with(
        *old_key, out.nonce, wsn::encode(*body), out_header);
    Packet fwd;
    fwd.sender = id();
    fwd.kind = PacketKind::kRefresh;
    fwd.payload = wsn::join_envelope(out_header, sealed);
    net.broadcast(fwd);
    net.counters().increment("refresh.reannounced");
  }
}

// ---------------------------------------------------------------------------
// µTESLA command channel (reference [6])

void SensorNode::on_auth_broadcast(net::Network& net, const Packet& packet,
                                   const AuthCommand& cmd) {
  // Buffer if the security condition holds; a freshly buffered command
  // is flooded onward exactly once (the receiver's dedup makes replays
  // return false).  The re-broadcast reuses the incoming payload buffer
  // verbatim (a refcount bump, not a re-encode).
  if (mutesla().on_command(net.sim().now(), cmd)) {
    net.counters().increment("mutesla.buffered");
    net.broadcast(Packet{id(), PacketKind::kAuthBroadcast, packet.payload});
  }
}

void SensorNode::on_key_disclosure(net::Network& net, const Packet& packet,
                                   const KeyDisclosure& disclosure) {
  if (mutesla().on_disclosure(disclosure)) {
    net.counters().increment("mutesla.key_verified");
    net.broadcast(Packet{id(), PacketKind::kKeyDisclosure, packet.payload});
  }
}

// ---------------------------------------------------------------------------
// revocation (§IV-D)

void SensorNode::on_revoke(net::Network& net, const Packet& packet,
                           const wsn::RevokeBody& body) {
  // Authenticate the command: the tag must be keyed by the chain element
  // and the element must extend our commitment through F (Figure 5).
  const crypto::MacTag expected =
      wsn::revoke_tag(body.chain_element, body.revoked_cids);
  if (!support::constant_time_equal(expected, body.tag)) {
    net.counters().increment("revoke.bad_tag");
    return;
  }
  // A copy of the command this node already accepted (the flood reaches
  // it from every neighbor): the element is our commitment, so walking
  // F toward it would only burn max_skip PRF calls and then fail.
  if (body.chain_element == chain_.commitment()) {
    net.counters().increment("revoke.duplicate");
    return;
  }
  if (!chain_.accept(body.chain_element)) {
    net.counters().increment("revoke.bad_chain");
    return;
  }
  bool own_revoked = false;
  for (ClusterId cid : body.revoked_cids) {
    if (cid == keys_.own_cid()) own_revoked = true;
    if (keys_.revoke(cid)) {
      net.counters().increment("revoke.key_deleted");
      net.audit(obs::AuditKind::kNeighborKeyDropped, id(), cid);
    }
  }
  if (own_revoked) {
    const ClusterId revoked_cid = keys_.own_cid();
    role_ = Role::kEvicted;
    keys_.clear();
    net.counters().increment("revoke.evicted");
    net.audit(obs::AuditKind::kEvicted, id(), revoked_cid);
  }
  // Flood: each node re-broadcasts an accepted command exactly once
  // (chain monotonicity guarantees single acceptance).
  net.broadcast(Packet{id(), PacketKind::kRevoke, packet.payload});
  net.counters().increment("revoke.forwarded");
}

// ---------------------------------------------------------------------------
// node addition (§IV-E)

void SensorNode::start_join(net::Network& net) {
  role_ = Role::kJoining;
  const wsn::JoinBody body{id()};
  net.broadcast(Packet{id(), PacketKind::kJoin, wsn::encode(body)});
  net.counters().increment("join.hello_sent");
  net.audit(obs::AuditKind::kJoinStarted, id());
  net.sim().schedule_in(sim::SimTime::from_seconds(config().join_window_s),
                        [this, &net] { commit_join(net); });
}

void SensorNode::on_join(net::Network& net, const Packet&,
                         const wsn::JoinBody& body) {
  if (!keys_.has_own() || role_ == Role::kEvicted || secrets_.has_kmc) return;
  // A §IV-C round is in flight: the key this reply would advertise dies
  // at the swap, so stay silent and let the joiner's retry find us
  // afterwards (the swap also resets the at-most-once guard below).
  if (recluster_active_) return;
  // Reply at most once per joining node (per key epoch).
  if (!join_replied_.insert(body.new_id).second) return;
  // §IV-E: reply "CID, MAC_Kc(CID)" so an adversary cannot advertise
  // clusters it has no key for (impersonation defence).
  wsn::JoinReplyBody reply;
  reply.cid = keys_.own_cid();
  reply.hash_epoch = hash_epoch_;
  reply.tag = wsn::join_reply_tag(keys_.own_key(), reply.cid, hash_epoch_);
  const double jitter = net.sim().rng().uniform(0.0, 0.01);
  net.sim().schedule_in(
      sim::SimTime::from_seconds(jitter), [this, &net, reply] {
        net.broadcast(Packet{id(), PacketKind::kJoinReply, wsn::encode(reply)});
        net.counters().increment("join.reply_sent");
      });
}

void SensorNode::on_join_reply(net::Network& net, const Packet&,
                               const wsn::JoinReplyBody& body) {
  if (role_ != Role::kJoining || !secrets_.has_kmc) return;
  // Derive the advertised cluster's key from KMC — Kc = F(KMC, CID) —
  // fast-forwarded through the advertised number of hash refreshes.
  // Cap the epoch so a forged reply cannot make us loop for long.
  if (body.hash_epoch > 4096) {
    net.counters().increment("join.reply_rejected");
    net.audit(obs::AuditKind::kJoinRejected, id(), body.cid, body.hash_epoch);
    return;
  }
  crypto::Key128 derived = crypto::prf_u64(secrets_.kmc, body.cid);
  for (std::uint32_t e = 0; e < body.hash_epoch; ++e) {
    derived = crypto::one_way(derived);
  }
  const crypto::MacTag expected =
      wsn::join_reply_tag(derived, body.cid, body.hash_epoch);
  if (!support::constant_time_equal(expected, body.tag)) {
    net.counters().increment("join.reply_rejected");
    net.audit(obs::AuditKind::kJoinRejected, id(), body.cid, body.hash_epoch);
    return;
  }
  // Keep every buffered candidate at this node's hash epoch, whichever
  // side is behind: a stale reply fast-forwards its derived key, a
  // fresher one fast-forwards the candidates collected so far.
  if (body.hash_epoch > hash_epoch_) {
    for (std::uint32_t e = hash_epoch_; e < body.hash_epoch; ++e) {
      for (auto& [cid, key] : join_candidates_) crypto::one_way_inplace(key);
    }
    hash_epoch_ = body.hash_epoch;
  } else {
    for (std::uint32_t e = body.hash_epoch; e < hash_epoch_; ++e) {
      derived = crypto::one_way(derived);
    }
  }
  const bool known = std::any_of(
      join_candidates_.begin(), join_candidates_.end(),
      [&](const auto& c) { return c.first == body.cid; });
  if (!known) join_candidates_.emplace_back(body.cid, derived);
  net.counters().increment("join.reply_verified");
}

void SensorNode::commit_join(net::Network& net) {
  if (role_ != Role::kJoining) return;
  if (join_candidates_.empty()) {
    // No cluster in range: retry later (energy permitting).
    net.counters().increment("join.no_cluster");
    start_join(net);
    return;
  }
  // §IV-E: "a member of the first such cluster while the rest will be the
  // neighboring ones".
  keys_.set_own(join_candidates_.front().first,
                join_candidates_.front().second);
  for (std::size_t i = 1; i < join_candidates_.size(); ++i) {
    if (keys_.add_neighbor(join_candidates_[i].first,
                           join_candidates_[i].second)) {
      net.audit(obs::AuditKind::kNeighborKeyStored, id(),
                join_candidates_[i].first);
    }
  }
  join_candidates_.clear();
  role_ = Role::kMember;
  joined_late_ = true;
  secrets_.erase_kmc();
  net.counters().increment("join.committed");
  net.audit(obs::AuditKind::kJoinAdmitted, id(), keys_.own_cid(), hash_epoch_);
}

// ---------------------------------------------------------------------------

const PacketDispatcher<SensorNode>& SensorNode::dispatcher() {
  // Sealed-envelope kinds register raw (the handler decrypts before it
  // can decode); cleartext kinds register decoded through the unified
  // codec.  One registration per PacketKind — kBaseline traffic never
  // reaches LDKE nodes and stays unregistered on purpose.
  static const PacketDispatcher<SensorNode> table =
      [] {
        PacketDispatcher<SensorNode> d;
        d.raw(PacketKind::kHello, &SensorNode::on_hello)
            .raw(PacketKind::kLinkAdvert, &SensorNode::on_link_advert)
            .raw(PacketKind::kData, &SensorNode::on_data)
            .raw(PacketKind::kBeacon, &SensorNode::on_beacon)
            .raw(PacketKind::kRefresh, &SensorNode::on_refresh)
            .raw(PacketKind::kReclusterHello, &SensorNode::on_recluster_hello)
            .raw(PacketKind::kReclusterLink, &SensorNode::on_recluster_link)
            .raw(PacketKind::kInterest, &SensorNode::on_interest)
            .raw(PacketKind::kDiffData, &SensorNode::on_diff_data)
            .raw(PacketKind::kReinforce, &SensorNode::on_reinforce)
            .decoded<wsn::RevokeBody>(PacketKind::kRevoke,
                                      &SensorNode::on_revoke,
                                      "revoke.malformed")
            .decoded<wsn::JoinBody>(PacketKind::kJoin, &SensorNode::on_join)
            .decoded<wsn::JoinReplyBody>(PacketKind::kJoinReply,
                                         &SensorNode::on_join_reply)
            .decoded<AuthCommand>(PacketKind::kAuthBroadcast,
                                  &SensorNode::on_auth_broadcast,
                                  "mutesla.malformed")
            .decoded<KeyDisclosure>(PacketKind::kKeyDisclosure,
                                    &SensorNode::on_key_disclosure,
                                    "mutesla.malformed");
        return d;
      }();
  return table;
}

void SensorNode::handle_packet(net::Network& net, const Packet& packet) {
  // All crypto performed while this node handles a packet — envelope
  // opens, any forwards or replies it triggers — lands on its counters.
  crypto::ScopedCryptoCounters obs_guard{crypto_stats_};
  dispatcher().dispatch(*this, net, packet);
}

}  // namespace ldke::core
