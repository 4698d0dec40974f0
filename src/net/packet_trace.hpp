#pragma once
/// \file packet_trace.hpp
/// Packet-level trace: one record per transmission (time, sender, kind,
/// size), kept in the shared bounded, lane-sharded record log
/// (obs/record_log.hpp) and merged by (time, sender).  Hang one on a
/// network with Network::set_packet_trace; the channel's sniffer feeds
/// it.

#include <cstdint>
#include <string_view>

#include "net/packet.hpp"
#include "obs/record_log.hpp"

namespace ldke::net {

struct TraceRecord {
  std::int64_t time_ns = 0;
  NodeId sender = kNoNode;
  PacketKind kind = PacketKind::kData;
  std::uint32_t size_bytes = 0;
  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

using PacketTrace = obs::RecordLog<TraceRecord, &TraceRecord::time_ns,
                                   &TraceRecord::sender>;

/// Human-readable name of a packet kind ("hello", "data", ...).
[[nodiscard]] std::string_view packet_kind_name(PacketKind kind) noexcept;

}  // namespace ldke::net
