#include "attacks/eavesdropper.hpp"

#include "wsn/messages.hpp"

namespace ldke::attacks {

void Eavesdropper::attach(net::Network& net) {
  net.channel().set_sniffer([this](const net::Packet& pkt) {
    ++packets_seen_;
    bytes_seen_ += pkt.size_bytes();
    // Data envelopes additionally expose their cleartext CID — the
    // input of the readable-fraction metric.  split_envelope only reads
    // views of the shared payload buffer; recording costs no copy.
    if (pkt.kind == net::PacketKind::kData) {
      if (const auto env = wsn::split_envelope(pkt.payload)) {
        data_headers_.push_back(env->header.cid);
      }
    }
  });
}

std::uint64_t Eavesdropper::readable_data_packets(
    const Adversary& adversary) const {
  std::uint64_t readable = 0;
  for (core::ClusterId cid : data_headers_) {
    if (adversary.can_read_cluster(cid)) ++readable;
  }
  return readable;
}

void Eavesdropper::reset() noexcept {
  packets_seen_ = 0;
  bytes_seen_ = 0;
  data_headers_.clear();
}

}  // namespace ldke::attacks
