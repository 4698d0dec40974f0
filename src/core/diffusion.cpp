/// \file diffusion.cpp
/// Wire codecs and SensorNode handlers of the secured mini Directed
/// Diffusion (see diffusion.hpp for the scheme).

#include "core/diffusion.hpp"

#include <limits>
#include <stdexcept>
#include <string>

#include "core/sensor_node.hpp"

namespace ldke::wsn {

void Codec<core::InterestBody>::write(Writer& w,
                                      const core::InterestBody& body) {
  w.u32(body.interest);
  w.var_bytes(body.descriptor);
}

std::optional<core::InterestBody> Codec<core::InterestBody>::read(Reader& r) {
  core::InterestBody body;
  const auto interest = r.u32();
  auto descriptor = r.var_bytes();
  if (!interest || !descriptor) return std::nullopt;
  body.interest = *interest;
  body.descriptor = std::move(*descriptor);
  return body;
}

void Codec<core::DiffusionDataBody>::write(
    Writer& w, const core::DiffusionDataBody& body) {
  w.u32(body.interest);
  w.u32(body.seq);
  w.u32(body.source);
  w.u8(body.exploratory);
  w.var_bytes(body.payload);
}

std::optional<core::DiffusionDataBody> Codec<core::DiffusionDataBody>::read(
    Reader& r) {
  core::DiffusionDataBody body;
  const auto interest = r.u32();
  const auto seq = r.u32();
  const auto source = r.u32();
  const auto exploratory = r.u8();
  auto payload = r.var_bytes();
  if (!interest || !seq || !source || !exploratory.has_value() || !payload) {
    return std::nullopt;
  }
  body.interest = *interest;
  body.seq = *seq;
  body.source = *source;
  body.exploratory = *exploratory;
  body.payload = std::move(*payload);
  return body;
}

void Codec<core::ReinforceBody>::write(Writer& w,
                                       const core::ReinforceBody& body) {
  w.u32(body.interest);
}

std::optional<core::ReinforceBody> Codec<core::ReinforceBody>::read(Reader& r) {
  const auto interest = r.u32();
  if (!interest) return std::nullopt;
  return core::ReinforceBody{*interest};
}

}  // namespace ldke::wsn

namespace ldke::core {

using net::Packet;
using net::PacketKind;

// ---------------------------------------------------------------------------

void SensorNode::subscribe_interest(net::Network& net, InterestId interest,
                                    std::span<const std::uint8_t> descriptor) {
  if (!keys_.has_own() || role_ == Role::kEvicted) return;
  DiffusionEntry& entry = diffusion_[interest];
  entry.is_sink = true;
  entry.interest_forwarded = true;
  entry.descriptor.assign(descriptor.begin(), descriptor.end());
  InterestBody body;
  body.interest = interest;
  body.descriptor = entry.descriptor;
  broadcast_under_current_key(net, PacketKind::kInterest, wsn::encode(body));
  net.counters().increment(obs::Counter::kDiffusionInterestSent);
}

void SensorNode::on_interest(net::Network& net, const Packet& packet) {
  wsn::DataHeader header;
  const auto plain = open_envelope(net, packet, header);
  if (!plain) return;
  const auto body = wsn::decode<InterestBody>(*plain);
  if (!body) {
    net.counters().increment(obs::Counter::kDiffusionMalformed);
    return;
  }
  if (role_ == Role::kEvicted) return;
  DiffusionEntry& entry = diffusion_[body->interest];
  if (entry.interest_forwarded || entry.is_sink) return;  // flood dedupe
  entry.interest_forwarded = true;
  entry.toward_sink = packet.sender;  // gradient toward the sink
  entry.descriptor = body->descriptor;
  broadcast_under_current_key(net, PacketKind::kInterest, wsn::encode(*body));
  net.counters().increment(obs::Counter::kDiffusionInterestForwarded);
}

bool SensorNode::publish_sample(net::Network& net, InterestId interest,
                                std::span<const std::uint8_t> payload) {
  if (!keys_.has_own() || role_ == Role::kEvicted) return false;
  const auto it = diffusion_.find(interest);
  if (it == diffusion_.end() || !it->second.interest_forwarded) {
    return false;  // never heard this query
  }
  DiffusionEntry& entry = it->second;
  std::uint32_t& seq = publish_seq_[interest];
  // Same wrap discipline as the envelope nonce: a silently wrapped seq
  // would alias fresh samples with long-delivered ones at the sink's
  // dedup window, so exhaustion is a hard error.
  if (seq == std::numeric_limits<std::uint32_t>::max()) {
    throw std::overflow_error("diffusion publish seq exhausted on node " +
                              std::to_string(id()) + " for interest " +
                              std::to_string(interest));
  }
  DiffusionDataBody body;
  body.interest = interest;
  body.seq = ++seq;
  body.source = id();
  body.exploratory = entry.on_reinforced_path ? 0 : 1;
  body.payload.assign(payload.begin(), payload.end());
  const net::NodeId next_hop =
      body.exploratory ? net::kNoNode
                       : (entry.path_toward_sink != net::kNoNode
                              ? entry.path_toward_sink
                              : entry.toward_sink);
  broadcast_under_current_key(net, PacketKind::kDiffData, wsn::encode(body),
                              next_hop);
  net.counters().increment(body.exploratory
                               ? obs::Counter::kDiffusionExploratorySent
                               : obs::Counter::kDiffusionPathSent);
  return true;
}

void SensorNode::on_diff_data(net::Network& net, const Packet& packet) {
  wsn::DataHeader header;
  const auto plain = open_envelope(net, packet, header);
  if (!plain) return;
  const auto body = wsn::decode<DiffusionDataBody>(*plain);
  if (!body) {
    net.counters().increment(obs::Counter::kDiffusionMalformed);
    return;
  }
  if (role_ == Role::kEvicted) return;
  const auto it = diffusion_.find(body->interest);
  if (it == diffusion_.end()) return;  // no gradient here
  DiffusionEntry& entry = it->second;

  const std::uint64_t sample_id =
      (std::uint64_t{body->source} << 32) | body->seq;
  if (!entry.seen_samples.insert(sample_id).second) return;  // duplicate

  // Remember the neighbor this source's data arrives from first — the
  // gradient a later reinforcement walks back along.
  if (body->exploratory && entry.toward_source == net::kNoNode &&
      body->source != id()) {
    entry.toward_source = packet.sender;
  }

  if (entry.is_sink) {
    diffusion_samples_.push_back(DiffusionSample{
        body->interest, body->seq, body->source, body->exploratory != 0,
        body->payload});
    net.counters().increment(obs::Counter::kDiffusionDelivered);
    // Positive reinforcement of the first-delivering neighbor (once).
    if (body->exploratory && !entry.sink_reinforced) {
      entry.sink_reinforced = true;
      broadcast_under_current_key(net, PacketKind::kReinforce,
                                  wsn::encode(ReinforceBody{body->interest}),
                                  packet.sender);
      net.counters().increment(obs::Counter::kDiffusionReinforceSent);
    }
    return;
  }

  if (body->exploratory != 0) {
    // Flood onward along the interest gradient.
    broadcast_under_current_key(net, PacketKind::kDiffData, wsn::encode(*body));
    net.counters().increment(obs::Counter::kDiffusionExploratoryForwarded);
  } else {
    // Path data: only the addressed node on the reinforced path relays.
    if (header.next_hop != id() || !entry.on_reinforced_path) return;
    if (entry.is_sink) return;  // delivered above
    const net::NodeId downstream = entry.path_toward_sink != net::kNoNode
                                       ? entry.path_toward_sink
                                       : entry.toward_sink;
    broadcast_under_current_key(net, PacketKind::kDiffData, wsn::encode(*body),
                                downstream);
    net.counters().increment(obs::Counter::kDiffusionPathForwarded);
  }
}

void SensorNode::on_reinforce(net::Network& net, const Packet& packet) {
  wsn::DataHeader header;
  const auto plain = open_envelope(net, packet, header);
  if (!plain) return;
  const auto body = wsn::decode<ReinforceBody>(*plain);
  if (!body) {
    net.counters().increment(obs::Counter::kDiffusionMalformed);
    return;
  }
  if (role_ == Role::kEvicted) return;
  if (header.next_hop != id()) return;  // walking a specific path
  const auto it = diffusion_.find(body->interest);
  if (it == diffusion_.end()) return;
  DiffusionEntry& entry = it->second;
  if (entry.on_reinforced_path) return;  // already marked (loop guard)
  entry.on_reinforced_path = true;
  entry.path_toward_sink = packet.sender;  // downstream of the path
  net.counters().increment(obs::Counter::kDiffusionReinforced);
  // Continue toward the source while a gradient exists; the source
  // itself has none and the walk terminates there.
  if (entry.toward_source != net::kNoNode) {
    broadcast_under_current_key(net, PacketKind::kReinforce, wsn::encode(*body),
                                entry.toward_source);
  }
}

}  // namespace ldke::core
