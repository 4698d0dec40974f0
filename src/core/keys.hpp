#pragma once
/// \file keys.hpp
/// Per-node key material (§IV-A) and the cluster-key set S (§IV-B.2).

#include <cstddef>
#include <optional>

#include "crypto/key.hpp"
#include "crypto/seal_context.hpp"
#include "net/topology.hpp"
#include "support/flat_map.hpp"
#include "wsn/messages.hpp"

namespace ldke::core {

using wsn::ClusterId;
using wsn::kNoCluster;

/// Keys loaded during manufacturing (§IV-A), plus the KMC master held
/// only by late-deployed nodes (§IV-E).
struct NodeSecrets {
  net::NodeId id = net::kNoNode;
  crypto::Key128 node_key;      ///< Ki, shared with the base station
  crypto::Key128 cluster_key;   ///< Kci = F(KMC, i), used only if i heads
  crypto::Key128 master_key;    ///< Km, erased after key setup
  crypto::Key128 commitment;    ///< K0 of the revocation hash chain
  crypto::Key128 mutesla_commitment;  ///< K0 of the µTESLA command chain
  crypto::Key128 kmc;           ///< KMC (only for §IV-E additions)
  bool has_kmc = false;

  void erase_master() noexcept { master_key.zeroize(); }
  void erase_kmc() noexcept {
    kmc.zeroize();
    has_kmc = false;
  }
  [[nodiscard]] bool master_erased() const noexcept {
    return master_key.is_zero();
  }
};

/// The set S of cluster keys a node holds: its own cluster's key plus one
/// per neighboring cluster.  |S| is the storage metric of Figure 6.
class ClusterKeySet {
 public:
  /// |S| ≈ bordering clusters + 1, typically 4–6 at paper densities —
  /// six inline slots keep the whole set allocation-free for the common
  /// case while staying a modest 120 bytes inside every SensorNode.
  using KeyMap = support::FlatMap<ClusterId, crypto::Key128, 6>;

  void set_own(ClusterId cid, const crypto::Key128& key);

  /// Stores a neighboring cluster's key; returns true if it was new.
  bool add_neighbor(ClusterId cid, const crypto::Key128& key);

  /// Key usable to authenticate traffic from cluster \p cid (own or
  /// neighboring); nullopt if the node does not border that cluster.
  [[nodiscard]] std::optional<crypto::Key128> key_for(ClusterId cid) const;

  /// Seal/open context for cluster \p cid, from the per-thread context
  /// memo (crypto/seal_context.hpp); nullopt if the node does not hold
  /// that cluster's key.  The first use of each key value charges the
  /// build, every later one reuses the memo uncounted, until the key's
  /// bytes change (crypto/obs.hpp).  This is the per-packet hot path:
  /// every hop envelope is sealed and opened through one of these.
  [[nodiscard]] std::optional<crypto::SealContext> context_for(
      ClusterId cid) const;

  /// Replaces the stored key for \p cid (key refresh); returns false if
  /// the cid is unknown.
  bool replace(ClusterId cid, const crypto::Key128& key);

  /// Deletes the key of a revoked cluster (§IV-D); returns true if held.
  bool revoke(ClusterId cid);

  /// Applies the one-way function to every held key (hash refresh mode,
  /// §IV-C / §VI).
  void hash_refresh_all();

  [[nodiscard]] ClusterId own_cid() const noexcept { return own_cid_; }
  [[nodiscard]] bool has_own() const noexcept {
    return own_cid_ != kNoCluster;
  }
  [[nodiscard]] const crypto::Key128& own_key() const { return keys_.at(own_cid_); }

  /// Total stored cluster keys (own + neighbors) — the Figure 6 metric.
  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  /// Number of *neighboring* clusters.
  [[nodiscard]] std::size_t neighbor_count() const noexcept {
    return keys_.size() - (has_own() ? 1 : 0);
  }

  [[nodiscard]] const KeyMap& all() const noexcept { return keys_; }

  void clear() noexcept {
    keys_.clear();
    built_.clear();
    own_cid_ = kNoCluster;
  }

 private:
  KeyMap keys_;
  /// Clusters whose current key has had its context built: the mutators
  /// drop a cid whenever its key's bytes change or the key goes.
  mutable support::FlatSet<ClusterId, 0> built_;
  ClusterId own_cid_ = kNoCluster;
};

}  // namespace ldke::core
