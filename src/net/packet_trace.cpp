#include "net/packet_trace.hpp"

namespace ldke::net {

std::string_view packet_kind_name(PacketKind kind) noexcept {
  switch (kind) {
    case PacketKind::kHello: return "hello";
    case PacketKind::kLinkAdvert: return "link_advert";
    case PacketKind::kData: return "data";
    case PacketKind::kBeacon: return "beacon";
    case PacketKind::kRevoke: return "revoke";
    case PacketKind::kJoin: return "join";
    case PacketKind::kJoinReply: return "join_reply";
    case PacketKind::kRefresh: return "refresh";
    case PacketKind::kBaseline: return "baseline";
    case PacketKind::kReclusterHello: return "recluster_hello";
    case PacketKind::kReclusterLink: return "recluster_link";
    case PacketKind::kAuthBroadcast: return "auth_broadcast";
    case PacketKind::kKeyDisclosure: return "key_disclosure";
    case PacketKind::kInterest: return "interest";
    case PacketKind::kDiffData: return "diff_data";
    case PacketKind::kReinforce: return "reinforce";
  }
  return "unknown";
}

}  // namespace ldke::net
