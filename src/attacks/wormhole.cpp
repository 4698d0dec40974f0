#include "attacks/wormhole.hpp"

#include <unordered_set>

namespace ldke::attacks {

WormholeResult run_wormhole_attack(core::ProtocolRunner& runner,
                                   net::Vec2 end_a, net::Vec2 end_b,
                                   double radius) {
  net::Network& net = runner.network();
  WormholeResult result;

  const auto& counters = net.counters();
  const auto no_key_before = counters.value(obs::Counter::kEnvelopeNoKey);
  const auto auth_before = counters.value(obs::Counter::kEnvelopeAuthFail);
  const auto stale_before = counters.value(obs::Counter::kEnvelopeStale);
  const auto replay_before = counters.value(obs::Counter::kEnvelopeReplay);

  // The tunnel: sniff every beacon whose sender sits inside disc A and
  // re-emit it once from disc B after a short out-of-band delay.
  auto tunneled_senders = std::make_shared<std::unordered_set<net::NodeId>>();
  auto* result_ptr = &result;
  net.channel().set_sniffer([&net, end_a, end_b, radius, tunneled_senders,
                             result_ptr](const net::Packet& pkt) {
    if (pkt.kind != net::PacketKind::kBeacon) return;
    if (pkt.sender >= net.topology().size()) return;  // already a replay
    const net::Vec2 pos = net.topology().position(pkt.sender);
    if (net::distance(pos, end_a) > radius) return;
    if (!tunneled_senders->insert(pkt.sender).second) return;
    ++result_ptr->tunneled;
    net.sim().schedule_in(sim::SimTime::from_us(200.0), [&net, end_b, radius,
                                                         pkt] {
      net.channel().broadcast_from(end_b, radius, pkt);
    });
  });

  // A fresh routing round while the tunnel is live.
  runner.run_routing_setup();
  net.channel().set_sniffer(nullptr);

  result.rejected_no_key =
      counters.value(obs::Counter::kEnvelopeNoKey) - no_key_before;
  result.rejected_other =
      (counters.value(obs::Counter::kEnvelopeAuthFail) - auth_before) +
      (counters.value(obs::Counter::kEnvelopeStale) - stale_before) +
      (counters.value(obs::Counter::kEnvelopeReplay) - replay_before);
  // "accepted" is approximated by route corruption: a receiver that
  // verified a tunneled beacon would adopt a parent it cannot reach.
  const auto& topo = net.topology();
  for (net::NodeId id = 0; id < runner.node_count(); ++id) {
    const net::NodeId parent = runner.node(id).routing().parent();
    if (parent == net::kNoNode) continue;
    if (!topo.in_range(id, parent)) {
      ++result.corrupted_routes;
      ++result.accepted;
    }
  }
  return result;
}

}  // namespace ldke::attacks
