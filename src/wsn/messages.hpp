#pragma once
/// \file messages.hpp
/// Plaintext message bodies for every protocol packet, with encode /
/// decode via the bounds-checked wire layer.  Encryption wrapping is the
/// responsibility of src/core (it owns the keys); these are the byte
/// layouts *inside* (or, for cleartext headers, outside) the envelopes.

#include <cstdint>
#include <optional>
#include <vector>

#include "crypto/hmac.hpp"
#include "crypto/key.hpp"
#include "net/topology.hpp"
#include "wsn/codec.hpp"
#include "wsn/wire.hpp"

namespace ldke::wsn {

using net::NodeId;

/// Cluster identifier == the elected head's node id (§IV-B.1).
using ClusterId = std::uint32_t;

inline constexpr ClusterId kNoCluster = UINT32_MAX;

/// §IV-B.1 — HELLO: "E_Km(ID_i | Kc_i | MAC)".  This body is sealed under
/// the master key Km.
struct HelloBody {
  NodeId head_id = net::kNoNode;
  crypto::Key128 cluster_key;
};

/// §IV-B.2 — link establishment: "E_Km(CID_i | Kc | MAC)".
struct LinkAdvertBody {
  ClusterId cid = kNoCluster;
  crypto::Key128 cluster_key;
};

/// Routing gradient beacon (hop count to the base station).  Carried
/// inside a hop envelope once key setup is complete.
struct BeaconBody {
  std::uint32_t hop = 0;
};

/// §IV-C Step 2 cleartext header: the CID tells receivers which key of
/// their set S authenticates the envelope; next_hop designates the
/// forwarder (all neighbors can still decrypt and "peek").
struct DataHeader {
  ClusterId cid = kNoCluster;
  NodeId next_hop = net::kNoNode;
  std::uint64_t nonce = 0;  ///< per-sender envelope nonce
};

/// §IV-C Step 2 protected interior: freshness timestamp, echoed CID
/// (binds envelope to header), and the Step-1 block c1.
struct DataInner {
  std::int64_t tau_ns = 0;   ///< time() at wrapping, for freshness
  ClusterId echoed_cid = kNoCluster;
  NodeId source = net::kNoNode;      ///< originating sensor
  std::uint64_t e2e_counter = 0;     ///< reading sequence; the Step-1 counter
  std::uint8_t e2e_encrypted = 0;    ///< 1 iff body is a Step-1 envelope
  support::Bytes body;               ///< D, or E2E-sealed D
};

/// Protected interior of a routing beacon (sealed like a Step-2
/// envelope under the sender's cluster key).
struct BeaconInner {
  std::uint32_t hop = 0;
  std::int64_t tau_ns = 0;
  ClusterId echoed_cid = kNoCluster;
};

/// §IV-D — revocation command.  The chain element authenticates the
/// chain position; the tag (keyed by that element) binds the CID list to
/// it, µTESLA-style.
struct RevokeBody {
  std::vector<ClusterId> revoked_cids;
  crypto::Key128 chain_element;
  crypto::MacTag tag{};
};

/// Tag input for a RevokeBody: MAC over the encoded CID list, keyed by
/// the chain element.
[[nodiscard]] crypto::MacTag revoke_tag(const crypto::Key128& chain_element,
                                        const std::vector<ClusterId>& cids);

/// §IV-E — a joining node announces itself (cleartext; the reply is
/// authenticated instead).
struct JoinBody {
  NodeId new_id = net::kNoNode;
};

/// §IV-E — "the response sent by existing nodes is simply CID,
/// MAC_Kc(CID)" to block impersonation of fake clusters.  hash_epoch
/// extends this with the number of hash-refresh rounds applied so far
/// (the paper refreshes "by periodically hashing these keys at fixed
/// time intervals"), letting the joiner fast-forward its KMC-derived key
/// to the current epoch.  The tag covers cid | hash_epoch under the
/// *current* cluster key.
struct JoinReplyBody {
  ClusterId cid = kNoCluster;
  std::uint32_t hash_epoch = 0;
  crypto::MacTag tag{};
};

/// Tag input for a JoinReplyBody.
[[nodiscard]] crypto::MacTag join_reply_tag(const crypto::Key128& cluster_key,
                                            ClusterId cid,
                                            std::uint32_t hash_epoch);

/// §IV-C — cluster-key refresh announcement (sealed under the current
/// cluster key).
struct RefreshBody {
  ClusterId cid = kNoCluster;
  crypto::Key128 new_key;
  std::uint32_t epoch = 0;
};

// ---- codec specializations ----------------------------------------------
// Every body serializes through the unified codec (wsn/codec.hpp):
// wsn::encode(body) / wsn::decode<Body>(bytes).

template <>
struct Codec<HelloBody> {
  static void write(Writer& w, const HelloBody& body);
  static std::optional<HelloBody> read(Reader& r);
};

template <>
struct Codec<LinkAdvertBody> {
  static void write(Writer& w, const LinkAdvertBody& body);
  static std::optional<LinkAdvertBody> read(Reader& r);
};

template <>
struct Codec<BeaconBody> {
  static void write(Writer& w, const BeaconBody& body);
  static std::optional<BeaconBody> read(Reader& r);
};

template <>
struct Codec<DataHeader> {
  static void write(Writer& w, const DataHeader& header);
  static std::optional<DataHeader> read(Reader& r);
};

template <>
struct Codec<DataInner> {
  static void write(Writer& w, const DataInner& inner);
  static std::optional<DataInner> read(Reader& r);
};

template <>
struct Codec<BeaconInner> {
  static void write(Writer& w, const BeaconInner& inner);
  static std::optional<BeaconInner> read(Reader& r);
};

template <>
struct Codec<RevokeBody> {
  static void write(Writer& w, const RevokeBody& body);
  static std::optional<RevokeBody> read(Reader& r);
};

template <>
struct Codec<JoinBody> {
  static void write(Writer& w, const JoinBody& body);
  static std::optional<JoinBody> read(Reader& r);
};

template <>
struct Codec<JoinReplyBody> {
  static void write(Writer& w, const JoinReplyBody& body);
  static std::optional<JoinReplyBody> read(Reader& r);
};

template <>
struct Codec<RefreshBody> {
  static void write(Writer& w, const RefreshBody& body);
  static std::optional<RefreshBody> read(Reader& r);
};

// ---- hop envelope --------------------------------------------------------

/// Encoded size of a DataHeader (cid u32 | next_hop u32 | nonce u64).
inline constexpr std::size_t kDataHeaderBytes = 16;

/// A parsed hop envelope: the cleartext header plus *views* into the
/// original packet buffer (no copies — the payload is immutable and
/// outlives the handler call).  header_bytes is the AAD the sealed part
/// is authenticated against.
struct Envelope {
  DataHeader header;
  std::span<const std::uint8_t> header_bytes;
  std::span<const std::uint8_t> sealed;
};

/// Splits `header || sealed` without copying either part.  Rejects
/// payloads shorter than a header.
[[nodiscard]] std::optional<Envelope> split_envelope(
    std::span<const std::uint8_t> payload);

/// Concatenates `header_bytes || sealed` into one payload buffer (single
/// allocation — the one payload allocation a transmission makes).
[[nodiscard]] support::Bytes join_envelope(
    std::span<const std::uint8_t> header_bytes,
    std::span<const std::uint8_t> sealed);

}  // namespace ldke::wsn
