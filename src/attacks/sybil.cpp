#include "attacks/sybil.hpp"

#include "crypto/authenc.hpp"
#include "crypto/drbg.hpp"
#include "wsn/messages.hpp"

namespace ldke::attacks {

SybilResult run_sybil_attack(core::ProtocolRunner& runner,
                             const CapturedMaterial& material,
                             std::size_t identities) {
  net::Network& net = runner.network();
  SybilResult result;
  result.identities = identities;

  const auto key_it = material.cluster_keys.find(material.cid);
  if (key_it == material.cluster_keys.end()) return result;

  const net::Vec2 pos = net.topology().position(material.node);
  const double range = net.topology().range();
  const net::NodeId parent = runner.node(material.node).routing().parent();

  const auto& counters = net.counters();
  const auto peek_before = counters.value(obs::Counter::kDataPeekOk);
  const auto bs_before = runner.base_station()->readings().size();
  const auto bs_fail_before = runner.base_station()->e2e_auth_failures() +
                              runner.base_station()->counter_violations();

  crypto::Drbg forged_keys{0x51B1Full};
  std::uint32_t counter = 0;
  for (std::size_t k = 0; k < identities; ++k) {
    // Claim an identity the adversary holds no Ki for (ids cycle over
    // the real id space so the base station knows them).
    const auto claimed = static_cast<net::NodeId>(
        (material.node + 1 + k) % runner.node_count());
    wsn::DataInner inner;
    inner.tau_ns = net.sim().now().ns();
    inner.echoed_cid = material.cid;
    inner.source = claimed;
    inner.e2e_counter = 1;
    inner.e2e_encrypted = 1;
    // Without Ki of `claimed`, the attacker can only guess a key.
    inner.body = crypto::seal(crypto::derive_pair(forged_keys.next_key()), 1,
                              support::bytes_of("sybil"));
    wsn::DataHeader header;
    header.cid = material.cid;
    header.next_hop = parent;
    header.nonce = (std::uint64_t{material.node} << 32) | (0xF0000000ULL + ++counter);
    const auto header_bytes = wsn::encode(header);
    const auto sealed = crypto::seal_with(key_it->second, header.nonce,
                                          wsn::encode(inner), header_bytes);
    net::Packet pkt;
    pkt.sender = material.node;
    pkt.kind = net::PacketKind::kData;
    pkt.payload = wsn::join_envelope(header_bytes, sealed);
    net.channel().broadcast_from(pos, range, pkt);
    runner.run_for(0.05);
  }
  runner.run_for(10.0);

  result.hop_accepted = counters.value(obs::Counter::kDataPeekOk) - peek_before;
  result.bs_accepted = runner.base_station()->readings().size() - bs_before;
  result.bs_rejected = runner.base_station()->e2e_auth_failures() +
                       runner.base_station()->counter_violations() -
                       bs_fail_before;
  return result;
}

}  // namespace ldke::attacks
