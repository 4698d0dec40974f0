#include "attacks/clone.hpp"

#include "crypto/authenc.hpp"
#include "wsn/messages.hpp"

namespace ldke::attacks {

CloneAttackResult run_clone_attack(core::ProtocolRunner& runner,
                                   const CapturedMaterial& material,
                                   net::Vec2 position, double radius) {
  net::Network& net = runner.network();
  CloneAttackResult result;
  result.receivers = net.topology().nodes_within(position, radius).size();

  // Forge a well-formed Step-2 envelope exactly as the victim would,
  // using the captured cluster key.
  const auto key_it = material.cluster_keys.find(material.cid);
  if (key_it == material.cluster_keys.end()) return result;

  wsn::DataInner inner;
  inner.tau_ns = net.sim().now().ns();
  inner.echoed_cid = material.cid;
  inner.source = material.node;
  inner.e2e_encrypted = 0;
  inner.body = support::bytes_of("forged-by-clone");

  wsn::DataHeader header;
  header.cid = material.cid;
  header.next_hop = net::kNoNode;  // measuring acceptance, not forwarding
  // High counter so receivers' per-sender replay tracking does not
  // reject it as old (the clone claims the victim's identity).
  header.nonce = (std::uint64_t{material.node} << 32) | 0xFFFF0000ULL;

  const support::Bytes header_bytes = wsn::encode(header);
  const support::Bytes sealed = crypto::seal_with(
      key_it->second, header.nonce, wsn::encode(inner), header_bytes);
  net::Packet pkt;
  pkt.sender = material.node;
  pkt.kind = net::PacketKind::kData;
  pkt.payload = wsn::join_envelope(header_bytes, sealed);

  const auto& counters = net.counters();
  const auto before_peek = counters.value(obs::Counter::kDataPeekOk);
  const auto before_no_key = counters.value(obs::Counter::kEnvelopeNoKey);
  const auto before_auth = counters.value(obs::Counter::kEnvelopeAuthFail);

  net.channel().broadcast_from(position, radius, pkt);
  runner.run_for(0.2);

  result.accepted = counters.value(obs::Counter::kDataPeekOk) - before_peek;
  result.rejected_no_key =
      counters.value(obs::Counter::kEnvelopeNoKey) - before_no_key;
  result.rejected_auth =
      counters.value(obs::Counter::kEnvelopeAuthFail) - before_auth;
  return result;
}

}  // namespace ldke::attacks
