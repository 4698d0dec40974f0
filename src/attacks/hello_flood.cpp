#include "attacks/hello_flood.hpp"

#include "crypto/authenc.hpp"
#include "crypto/drbg.hpp"
#include "wsn/messages.hpp"

namespace ldke::attacks {

namespace {
/// Must match the nonce convention of core's setup messages.
constexpr std::uint64_t hello_nonce(net::NodeId id) noexcept {
  return (std::uint64_t{static_cast<std::uint8_t>(net::PacketKind::kHello)}
          << 32) |
         id;
}
}  // namespace

HelloFloodResult run_hello_flood(core::ProtocolRunner& runner,
                                 net::Vec2 position, double radius,
                                 std::size_t hello_count,
                                 bool adversary_knows_km) {
  net::Network& net = runner.network();
  HelloFloodResult result;
  result.receivers = net.topology().nodes_within(position, radius).size();

  crypto::Drbg attacker_rng{0xBADC0DEULL};
  const crypto::Key128 wrong_key = attacker_rng.next_key();

  // Fake head ids outside the deployed id space.
  const net::NodeId fake_base = 0xFFF00000u;
  for (std::size_t k = 0; k < hello_count; ++k) {
    const net::NodeId fake_id = fake_base + static_cast<net::NodeId>(k);
    wsn::HelloBody body;
    body.head_id = fake_id;
    body.cluster_key = attacker_rng.next_key();  // attacker-chosen key
    const crypto::Key128 seal_key =
        adversary_knows_km ? runner.roots().master_key : wrong_key;
    net::Packet pkt;
    pkt.sender = fake_id;
    pkt.kind = net::PacketKind::kHello;
    pkt.payload =
        crypto::seal_with(seal_key, hello_nonce(fake_id), wsn::encode(body));
    // Blast them at the very start of the election window.
    net.sim().schedule_at(
        sim::SimTime::from_us(static_cast<double>(k) + 1.0),
        [&net, position, radius, pkt] {
          net.channel().broadcast_from(position, radius, pkt);
        });
  }

  const auto before_fail =
      net.counters().value(obs::Counter::kSetupHelloAuthFail);
  runner.run_key_setup();
  result.auth_failures =
      net.counters().value(obs::Counter::kSetupHelloAuthFail) - before_fail;

  for (const auto& node : runner.nodes()) {
    if (node->keys().has_own() && node->cid() >= fake_base) {
      ++result.victims_joined;
    }
  }
  return result;
}

}  // namespace ldke::attacks
