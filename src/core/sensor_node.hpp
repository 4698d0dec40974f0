#pragma once
/// \file sensor_node.hpp
/// The LDKE protocol state machine (§IV), one instance per sensor.
///
/// Lifecycle of an *original* node:
///   start()           — draws the exponential election timer, schedules
///                       the link advert and the Km erase (§IV-B)
///   timer fires       — if still undecided, becomes a cluster head and
///                       broadcasts HELLO = E_Km(ID | Kc | MAC)
///   HELLO received    — if undecided, joins that cluster (no reply
///                       transmission; §IV-B.1)
///   link advert       — broadcasts E_Km(CID | Kc | MAC); stores adverts
///                       from other clusters into the key set S
///   Km erased         — setup complete; data / beacons / refresh /
///                       revocation all run on cluster keys only
///
/// A *late-deployed* node (§IV-E) instead broadcasts JOIN, verifies the
/// authenticated CID replies with keys derived from KMC, adopts the
/// first cluster and erases KMC.

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/config.hpp"
#include "core/diffusion.hpp"
#include "core/dispatch.hpp"
#include "core/keys.hpp"
#include "core/mutesla.hpp"
#include "crypto/drbg.hpp"
#include "crypto/keychain.hpp"
#include "crypto/obs.hpp"
#include "crypto/prf.hpp"
#include "net/network.hpp"
#include "net/node.hpp"
#include "support/flat_map.hpp"
#include "wsn/messages.hpp"
#include "wsn/routing.hpp"

namespace ldke::core {

enum class Role : std::uint8_t {
  kUndecided,  ///< election timer pending
  kHead,       ///< sent HELLO (demotes to an ordinary member logically;
               ///< the flag is kept for statistics and refresh duty)
  kMember,     ///< joined a head's cluster
  kJoining,    ///< late-deployed, collecting JOIN replies (§IV-E)
  kEvicted,    ///< own cluster revoked (§IV-D)
};

class SensorNode : public net::Node {
 public:
  SensorNode(NodeSecrets secrets, const ProtocolConfig& config);

  /// Deployment-shared configuration: every node of a runner references
  /// one immutable ProtocolConfig instead of carrying a private copy.
  SensorNode(NodeSecrets secrets,
             std::shared_ptr<const ProtocolConfig> config);

  // ---- net::Node ----
  void start(net::Network& net) override;
  void handle_packet(net::Network& net, const net::Packet& packet) override;

  // ---- observable state ----
  [[nodiscard]] Role role() const noexcept { return role_; }
  [[nodiscard]] bool was_head() const noexcept { return was_head_; }
  [[nodiscard]] ClusterId cid() const noexcept { return keys_.own_cid(); }
  [[nodiscard]] const ClusterKeySet& keys() const noexcept { return keys_; }
  [[nodiscard]] const NodeSecrets& secrets() const noexcept { return secrets_; }
  [[nodiscard]] bool master_erased() const noexcept {
    return secrets_.master_erased();
  }
  [[nodiscard]] const wsn::RoutingTable& routing() const noexcept {
    return routing_;
  }
  [[nodiscard]] std::uint64_t setup_messages_sent() const noexcept {
    return setup_messages_sent_;
  }

  /// Crypto work attributed to this node (seal/open/PRF counts and byte
  /// volume).  Covers packet handling, the node's own scheduled
  /// transmissions and its hash refreshes (wake catch-ups included);
  /// deployment-wide provisioning is charged to the runner, not to nodes.
  [[nodiscard]] const crypto::CryptoCounters& crypto_stats() const noexcept {
    return crypto_stats_;
  }

  // ---- data plane (§IV-C) ----
  /// Originates a sensor reading toward the base station.  Returns false
  /// if the node has no cluster key or no route yet.
  bool send_reading(net::Network& net,
                    std::span<const std::uint8_t> payload);

  /// Data-fusion hook: inspects every authenticated reading this node is
  /// asked to forward; returning false discards it as redundant (§II
  /// "Intermediate Node Accessibility of Data").  Only usable when Step 1
  /// is off or for metadata (source id) when it is on.
  void set_fusion_filter(std::function<bool(const wsn::DataInner&)> filter) {
    fusion_filter_ = std::move(filter);
  }

  // ---- key refresh (§IV-C) ----
  /// Generates a fresh cluster key and announces it under the current
  /// one.  The runner typically calls this on former heads.
  bool initiate_cluster_rekey(net::Network& net);

  // ---- periodic re-clustering (§IV-C's primary refresh mode) ----
  // "Sensor nodes can repeat the key setup phase with a predefined
  // period in order to form new clusters and new cluster keys.  Since
  // Km is no longer available to the nodes, the current cluster key may
  // be used instead."  The round mirrors the two setup phases, with
  // every message wrapped in a hop envelope under the sender's *current*
  // cluster key; the freshly built key set replaces S atomically at the
  // end of the round (finish_recluster).

  /// Enters the re-clustering election: resets the round state and draws
  /// a fresh exponential head timer.  The runner schedules the link
  /// phase and the final swap (see ProtocolRunner::run_recluster_round).
  void begin_recluster(net::Network& net);

  /// Phase 2 of the round: advertises the *new* cluster's (CID, Kc)
  /// under the current (old) cluster key.
  void send_recluster_link_advert(net::Network& net);

  /// Atomically replaces S with the re-clustered key set.
  void finish_recluster(net::Network& net);

  [[nodiscard]] bool recluster_in_progress() const noexcept {
    return recluster_active_;
  }

  /// Stateless hash refresh: Kc <- F(Kc) for every held key.  All nodes
  /// must apply it at the same epoch (§VI recommends this mode).  Keys
  /// still pending in the §IV-E join buffer ride along: a refresh round
  /// landing inside the join window would otherwise leave the joiner's
  /// keys permanently one F behind its cluster.
  void apply_hash_refresh() {
    crypto::ScopedCryptoCounters obs_guard{crypto_stats_};
    keys_.hash_refresh_all();
    for (auto& [cid, key] : join_candidates_) crypto::one_way_inplace(key);
    ++hash_epoch_;
  }

  /// Number of hash-refresh rounds applied so far (advertised in JOIN
  /// replies so newcomers can fast-forward KMC-derived keys).
  [[nodiscard]] std::uint32_t hash_epoch() const noexcept {
    return hash_epoch_;
  }

  // ---- duty cycling (scenario layer) ----
  /// Wake-up catch-up: a node that slept through hash-refresh rounds
  /// holds stale keys and would fail to authenticate its cluster's
  /// traffic.  Fast-forwards Kc <- F(Kc) until this node's epoch matches
  /// \p global_epoch (the deployment-wide refresh count); returns the
  /// number of rounds applied.  Idempotent when already current, and a
  /// no-op on a node that never clustered.
  std::uint32_t catch_up_hash_epoch(std::uint32_t global_epoch) {
    std::uint32_t applied = 0;
    while (hash_epoch_ < global_epoch) {
      apply_hash_refresh();
      ++applied;
    }
    return applied;
  }

  // ---- routing ----
  /// Declares this node the routing root (base station) and floods the
  /// first beacon.
  void start_routing_root(net::Network& net);

  /// Forgets the current route so a fresh beacon round can rebuild the
  /// gradient (used after node additions / evictions).
  void reset_routing() noexcept {
    routing_.reset();
    parent_cid_ = kNoCluster;
  }

  // ---- directed diffusion (reference [5]) ----
  /// Originates an interest (this node becomes the sink) and floods it.
  void subscribe_interest(net::Network& net, InterestId interest,
                          std::span<const std::uint8_t> descriptor);

  /// Publishes one sample for an interest this node has heard.  Flooded
  /// exploratorily until the sink reinforces a path, then unicast along
  /// it.  Returns false if the interest is unknown here.
  bool publish_sample(net::Network& net, InterestId interest,
                      std::span<const std::uint8_t> payload);

  /// Samples delivered to this node as a sink.
  [[nodiscard]] const std::vector<DiffusionSample>& diffusion_samples()
      const noexcept {
    return diffusion_samples_;
  }

  /// Diffusion state for one interest (nullptr if never heard).
  [[nodiscard]] const DiffusionEntry* diffusion_entry(
      InterestId interest) const {
    const auto it = diffusion_.find(interest);
    return it == diffusion_.end() ? nullptr : &it->second;
  }

  // ---- µTESLA command channel (reference [6]) ----
  /// Receiver state for authenticated base-station broadcasts.
  /// Materialized on first use: most nodes in a setup-only trial never
  /// see a command, so the receiver (~176 bytes) would be dead weight.
  /// Construction is deterministic — commitment and config only — so
  /// when it happens cannot affect protocol behaviour.
  [[nodiscard]] MuTeslaReceiver& mutesla() { return ensure_mutesla(); }
  [[nodiscard]] const MuTeslaReceiver& mutesla() const {
    return const_cast<SensorNode*>(this)->ensure_mutesla();
  }
  /// Commands delivered to this node, in (seq, payload) arrival order.
  [[nodiscard]] const std::vector<std::pair<std::uint32_t, support::Bytes>>&
  received_commands() const noexcept {
    return received_commands_;
  }

  // ---- test/attack hooks ----
  /// Full key material exposure, as after physical capture (§VI).  The
  /// attack harness uses this; the protocol itself never does.
  [[nodiscard]] const ClusterKeySet& captured_keys() const noexcept {
    return keys_;
  }

  /// Selective-forwarding misbehaviour (§VI): a compromised node drops
  /// each packet it should forward with this probability.  0 = honest.
  void set_forward_drop_probability(double p) noexcept {
    forward_drop_probability_ = p;
  }

  /// Rollover tests: positions the envelope-nonce counter near its wrap
  /// point without replaying billions of sends.  next_nonce() hard-errors
  /// when the counter is exhausted instead of silently truncating.
  void debug_set_envelope_counter(std::uint32_t value) noexcept {
    envelope_counter_ = value;
  }

  /// Ditto for the per-interest diffusion publish sequence.
  void debug_set_publish_seq(InterestId interest, std::uint32_t value) {
    publish_seq_[interest] = value;
  }

 protected:
  /// Invoked when a data envelope addressed to this node as final
  /// destination authenticates; the base station overrides this.
  virtual void on_delivered(net::Network& net, const wsn::DataInner& inner);

  [[nodiscard]] const ProtocolConfig& config() const noexcept {
    return *config_;
  }

  /// This node's crypto account, for work a subclass does on its own
  /// initiative (outside any packet handler).
  [[nodiscard]] crypto::CryptoCounters& crypto_account() noexcept {
    return crypto_stats_;
  }

  NodeSecrets secrets_;

 private:
  /// Whether the node has charged its context build for Km and for Ki
  /// (crypto/obs.hpp); the Km erase clears its flag.  Beside secrets_,
  /// in its padding, so the setup handlers' Km reads touch no cache line
  /// that their secrets_ checks have not already loaded.
  bool master_built_ = false;
  bool node_key_built_ = false;

  // setup phase
  void on_election_timer(net::Network& net);
  /// Schedules the §IV-B Km erase at the absolute deadline (called from
  /// the last link-advert event so the erase slot is not held all phase).
  void schedule_master_erase(net::Network& net);
  void send_link_advert(net::Network& net);
  void on_hello(net::Network& net, const net::Packet& packet);
  void on_link_advert(net::Network& net, const net::Packet& packet);

  // data / beacon plane
  void on_data(net::Network& net, const net::Packet& packet);
  void on_beacon(net::Network& net, const net::Packet& packet);
  void forward_inner(net::Network& net, wsn::DataInner inner);
  void send_beacon(net::Network& net);
  void schedule_beacon(net::Network& net);

  // re-clustering round
  void on_recluster_timer(net::Network& net);
  void on_recluster_hello(net::Network& net, const net::Packet& packet);
  void on_recluster_link(net::Network& net, const net::Packet& packet);
  /// Wraps \p body under the *current* cluster key as a one-shot
  /// broadcast of the given kind (recluster + diffusion messages).
  /// \p next_hop designates an addressed forwarder (kNoNode = everyone).
  void broadcast_under_current_key(net::Network& net, net::PacketKind kind,
                                   std::span<const std::uint8_t> body,
                                   net::NodeId next_hop = net::kNoNode);

  // µTESLA command channel (cleartext kinds: bodies arrive pre-decoded
  // by the dispatch table)
  void on_auth_broadcast(net::Network& net, const net::Packet& packet,
                         const AuthCommand& cmd);
  void on_key_disclosure(net::Network& net, const net::Packet& packet,
                         const KeyDisclosure& disclosure);

  // directed diffusion
  void on_interest(net::Network& net, const net::Packet& packet);
  void on_diff_data(net::Network& net, const net::Packet& packet);
  void on_reinforce(net::Network& net, const net::Packet& packet);

  // refresh / revocation / join
  void on_refresh(net::Network& net, const net::Packet& packet);
  void on_revoke(net::Network& net, const net::Packet& packet,
                 const wsn::RevokeBody& body);
  void on_join(net::Network& net, const net::Packet& packet,
               const wsn::JoinBody& body);
  void on_join_reply(net::Network& net, const net::Packet& packet,
                     const wsn::JoinReplyBody& body);
  void start_join(net::Network& net);
  void commit_join(net::Network& net);

  /// The kind → handler table shared by every SensorNode (and, through
  /// inheritance, BaseStation — virtual hooks still dispatch to
  /// overrides).  Built once, on first use.
  [[nodiscard]] static const PacketDispatcher<SensorNode>& dispatcher();

  /// Per-sender monotonically increasing envelope nonce: high 32 bits are
  /// the node id, so distinct cluster members never collide on the shared
  /// cluster key.  Throws std::overflow_error once the 32-bit counter is
  /// exhausted — wrapping would reuse (key, nonce) pairs and void the
  /// CTR/MAC guarantees, so exhaustion is a hard error, never silent
  /// (audited as nonce_wrap_abort before the throw).
  [[nodiscard]] std::uint64_t next_nonce(net::Network& net);

  /// Opens a hop envelope (header + sealed) with the key set S; returns
  /// the plaintext or nullopt, incrementing diagnostic counters.
  [[nodiscard]] std::optional<support::Bytes> open_envelope(
      net::Network& net, const net::Packet& packet, wsn::DataHeader& header);

  /// Freshness + replay acceptance shared by data and beacons.
  [[nodiscard]] bool accept_envelope(net::Network& net,
                                     const net::Packet& packet,
                                     const wsn::DataHeader& header,
                                     std::int64_t tau_ns,
                                     ClusterId echoed_cid);

  std::shared_ptr<const ProtocolConfig> config_;
  ClusterKeySet keys_;
  Role role_ = Role::kUndecided;
  bool was_head_ = false;
  bool joined_late_ = false;  ///< arrived via §IV-E (affects wrap key choice)

  wsn::RoutingTable routing_;
  /// Cluster of the routing parent (from its beacon header).  A
  /// late-joined node wraps its uplink traffic under this key: the paper
  /// leaves implicit how a joiner's neighbors that do not border its
  /// adopted cluster authenticate it; using a mutually-held key from S
  /// closes that gap without new key transport.
  ClusterId parent_cid_ = kNoCluster;
  bool beacon_pending_ = false;

  crypto::ChainVerifier chain_;
  /// Key-refresh DRBG, materialized on first rekey: the seed derives
  /// deterministically from Ki, so construction time cannot affect the
  /// drawn keys, and a setup-only node never pays the ~184-byte state.
  std::unique_ptr<crypto::Drbg> drbg_;
  [[nodiscard]] crypto::Drbg& drbg();
  std::unique_ptr<MuTeslaReceiver> mutesla_;
  [[nodiscard]] MuTeslaReceiver& ensure_mutesla();
  std::vector<std::pair<std::uint32_t, support::Bytes>> received_commands_;
  support::FlatMap<InterestId, DiffusionEntry, 0> diffusion_;
  std::vector<DiffusionSample> diffusion_samples_;
  support::FlatMap<InterestId, std::uint32_t, 0> publish_seq_;

  /// Seal/open context for Km during setup, from the per-thread context
  /// memo like keys_.context_for().
  [[nodiscard]] crypto::SealContext master_context();

  std::uint32_t envelope_counter_ = 0;
  std::uint32_t hash_epoch_ = 0;
  std::uint64_t e2e_counter_ = 0;
  support::FlatMap<net::NodeId, std::uint64_t, 0> last_nonce_;
  support::FlatMap<ClusterId, std::uint32_t, 0> refresh_epoch_;

  sim::EventId election_timer_ = sim::kInvalidEventId;
  std::uint64_t setup_messages_sent_ = 0;
  crypto::CryptoCounters crypto_stats_;

  // §IV-C re-clustering round state (inactive outside a round).
  bool recluster_active_ = false;
  bool recluster_decided_ = false;
  bool recluster_head_ = false;
  /// Built on the side during a round, swapped into keys_ at the end.
  /// Boxed: the side set only exists inside a round, and an inline
  /// ClusterKeySet would charge every node its 176 bytes forever.
  std::unique_ptr<ClusterKeySet> recluster_keys_;
  sim::EventId recluster_timer_ = sim::kInvalidEventId;
  std::uint64_t recluster_messages_sent_ = 0;

 public:
  [[nodiscard]] std::uint64_t recluster_messages_sent() const noexcept {
    return recluster_messages_sent_;
  }

 private:

  std::function<bool(const wsn::DataInner&)> fusion_filter_;
  double forward_drop_probability_ = 0.0;

  // §IV-E join state
  std::vector<std::pair<ClusterId, crypto::Key128>> join_candidates_;
  support::FlatSet<net::NodeId, 0> join_replied_;
};

}  // namespace ldke::core
