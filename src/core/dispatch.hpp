#pragma once
/// \file dispatch.hpp
/// Typed packet dispatch: a per-node-type table mapping PacketKind to a
/// handler, replacing the 16-way switch that used to live in
/// SensorNode::handle_packet.  Two registration flavors reflect the two
/// message shapes on the air:
///
///   raw(kind, &NodeT::handler)       — sealed-envelope kinds.  The
///     payload is `header || ciphertext`; the handler must decrypt
///     before anything can be decoded, so it receives the raw packet.
///
///   decoded<Body>(kind, &NodeT::handler [, malformed]) —
///     cleartext kinds.  The payload is decoded through the unified
///     codec (wsn/codec.hpp) up front; handlers receive the parsed body
///     and never see malformed bytes.
///
/// Tables are built once (function-local static in the node class) and
/// invoke handlers through member pointers, so a subclass like
/// BaseStation reuses its base's table while virtual hooks (e.g.
/// on_delivered) still dispatch to the override.

#include <array>
#include <functional>
#include <optional>

#include "net/network.hpp"
#include "net/packet.hpp"
#include "wsn/codec.hpp"

namespace ldke::core {

template <typename NodeT>
class PacketDispatcher {
 public:
  using RawHandler = void (NodeT::*)(net::Network&, const net::Packet&);
  template <typename Body>
  using BodyHandler = void (NodeT::*)(net::Network&, const net::Packet&,
                                      const Body&);

  /// Registers a sealed-envelope handler receiving the raw packet.
  PacketDispatcher& raw(net::PacketKind kind, RawHandler handler) {
    slot(kind) = [handler](NodeT& node, net::Network& net,
                           const net::Packet& packet) {
      (node.*handler)(net, packet);
    };
    return *this;
  }

  /// Registers a cleartext handler; the payload is decoded via the
  /// unified codec first.  Malformed payloads bump \p malformed (when
  /// set) and are dropped before the handler runs.
  template <typename Body>
  PacketDispatcher& decoded(net::PacketKind kind, BodyHandler<Body> handler,
                            std::optional<obs::Counter> malformed = {}) {
    slot(kind) = [handler, malformed](NodeT& node, net::Network& net,
                                      const net::Packet& packet) {
      const auto body = wsn::decode<Body>(packet.payload);
      if (!body) {
        if (malformed) net.counters().increment(*malformed);
        return;
      }
      (node.*handler)(net, packet, *body);
    };
    return *this;
  }

  void dispatch(NodeT& node, net::Network& net,
                const net::Packet& packet) const {
    const Entry& entry = entries_[index(packet.kind)];
    if (!entry) {
      net.counters().increment(obs::Counter::kPacketUnknownKind);
      return;
    }
    entry(node, net, packet);
  }

 private:
  using Entry =
      std::function<void(NodeT&, net::Network&, const net::Packet&)>;

  /// Kind values start at 1; slot 0 stays unregistered, and anything out
  /// of range folds onto it (reported as packet.unknown_kind).
  [[nodiscard]] static std::size_t index(net::PacketKind kind) noexcept {
    const auto i = static_cast<std::size_t>(kind);
    return i < net::kPacketKindCount ? i : 0;
  }

  Entry& slot(net::PacketKind kind) { return entries_[index(kind)]; }

  std::array<Entry, net::kPacketKindCount> entries_{};
};

}  // namespace ldke::core
