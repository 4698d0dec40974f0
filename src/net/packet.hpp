#pragma once
/// \file packet.hpp
/// Over-the-air frame.  The payload is opaque protocol bytes (usually
/// ciphertext); `kind` is the cleartext link-layer type tag that lets a
/// receiver dispatch without decrypting.

#include <cstdint>

#include "net/payload.hpp"
#include "net/topology.hpp"
#include "support/hex.hpp"

namespace ldke::net {

/// Link-layer message types across all protocols in this repository.
enum class PacketKind : std::uint8_t {
  kHello = 1,       ///< cluster-head announcement (§IV-B.1)
  kLinkAdvert = 2,  ///< cluster-key advertisement (§IV-B.2)
  kData = 3,        ///< hop-by-hop protected data (§IV-C)
  kBeacon = 4,      ///< routing gradient beacon
  kRevoke = 5,      ///< base-station revocation command (§IV-D)
  kJoin = 6,        ///< new-node hello (§IV-E)
  kJoinReply = 7,   ///< CID advertisement to a joining node (§IV-E)
  kRefresh = 8,     ///< cluster-key refresh announcement (§IV-C)
  kBaseline = 9,    ///< baseline-scheme traffic (src/baselines)
  kReclusterHello = 10,  ///< head announcement of a re-clustering round
  kReclusterLink = 11,   ///< link advert of a re-clustering round
  kAuthBroadcast = 12,   ///< µTESLA-authenticated base-station command
  kKeyDisclosure = 13,   ///< µTESLA interval-key disclosure
  kInterest = 14,        ///< directed-diffusion interest flood
  kDiffData = 15,        ///< directed-diffusion data (exploratory or path)
  kReinforce = 16,       ///< directed-diffusion path reinforcement
};

/// One past the largest PacketKind value — sizes dispatch tables.
inline constexpr std::size_t kPacketKindCount = 17;

/// Physical-layer framing overhead charged per transmission, matching a
/// mote-era stack (preamble + sync + len + CRC), in bytes.
inline constexpr std::size_t kFrameOverheadBytes = 11;

struct Packet {
  NodeId sender = kNoNode;
  PacketKind kind = PacketKind::kData;
  /// Immutable shared bytes: copying a Packet (per-receiver delivery,
  /// sniffer capture, forwarding) bumps a refcount instead of cloning
  /// the buffer.  See payload.hpp.
  PayloadRef payload;

  [[nodiscard]] std::size_t size_bytes() const noexcept {
    return kFrameOverheadBytes + payload.size();
  }
};
// A one-pointer PayloadRef keeps a frame at 16 bytes, which keeps the
// channel's delivery captures inside EventFn's inline budget.
static_assert(sizeof(Packet) == 16);

}  // namespace ldke::net
