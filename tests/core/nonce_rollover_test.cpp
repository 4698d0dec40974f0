/// \file nonce_rollover_test.cpp
/// Steady-state counter-wrap behaviour: the envelope nonce counter and
/// the diffusion publish sequence both hard-error at exhaustion instead
/// of silently truncating into (key, nonce) reuse.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>

#include "test_helpers.hpp"
#include "wsn/messages.hpp"

namespace ldke::core {
namespace {

using testing::after_key_setup;
using testing::after_routing;
using testing::small_config;

constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();

net::NodeId routed_node(const ProtocolRunner& runner) {
  for (net::NodeId id = 1; id < runner.node_count(); ++id) {
    if (runner.node(id).routing().has_route() &&
        runner.node(id).keys().has_own()) {
      return id;
    }
  }
  return net::kNoNode;
}

TEST(NonceRollover, EnvelopeCounterExhaustionIsAHardError) {
  auto runner = after_routing();
  const net::NodeId id = routed_node(*runner);
  ASSERT_NE(id, net::kNoNode);
  SensorNode& node = runner->node(id);
  const auto payload = support::bytes_of("r");

  node.debug_set_envelope_counter(kMax - 2);
  EXPECT_TRUE(node.send_reading(runner->network(), payload));  // -> kMax - 1
  EXPECT_TRUE(node.send_reading(runner->network(), payload));  // -> kMax
  // The counter is exhausted: the next draw must throw, and keep
  // throwing — no silent wrap back to nonce 0.
  EXPECT_THROW(node.send_reading(runner->network(), payload),
               std::overflow_error);
  EXPECT_THROW(node.send_reading(runner->network(), payload),
               std::overflow_error);
}

TEST(NonceRollover, LastNonceBeforeTheWallIsWellFormed) {
  auto runner = after_routing();
  const net::NodeId id = routed_node(*runner);
  ASSERT_NE(id, net::kNoNode);
  SensorNode& node = runner->node(id);
  support::Bytes last_frame;
  runner->network().channel().set_sniffer([&](const net::Packet& pkt) {
    if (pkt.sender == id && pkt.kind == net::PacketKind::kData) {
      last_frame = pkt.payload.to_bytes();
    }
  });

  node.debug_set_envelope_counter(kMax - 1);
  ASSERT_TRUE(node.send_reading(runner->network(), support::bytes_of("r")));
  const auto envelope = wsn::split_envelope(last_frame);
  ASSERT_TRUE(envelope.has_value());
  // High 32 bits carry the node id, low 32 the final counter value.
  EXPECT_EQ(envelope->header.nonce, (std::uint64_t{id} << 32) | kMax);
  EXPECT_THROW(node.send_reading(runner->network(), support::bytes_of("r")),
               std::overflow_error);
}

TEST(NonceRollover, PublishSeqExhaustionIsAHardError) {
  constexpr InterestId kQuery = 0x5151;
  auto runner = after_key_setup(small_config(31, 150, 12.0));
  runner->base_station()->subscribe_interest(runner->network(), kQuery,
                                             support::bytes_of("temp"));
  runner->run_for(5.0);  // interest flood settles

  net::NodeId publisher = net::kNoNode;
  for (net::NodeId id = 1; id < runner->node_count(); ++id) {
    const DiffusionEntry* entry = runner->node(id).diffusion_entry(kQuery);
    if (entry != nullptr && entry->interest_forwarded &&
        runner->node(id).keys().has_own()) {
      publisher = id;
      break;
    }
  }
  ASSERT_NE(publisher, net::kNoNode);
  SensorNode& node = runner->node(publisher);

  node.debug_set_publish_seq(kQuery, kMax - 1);
  EXPECT_TRUE(node.publish_sample(runner->network(),
                                  kQuery, support::bytes_of("s")));  // -> kMax
  EXPECT_THROW(node.publish_sample(runner->network(), kQuery,
                                   support::bytes_of("s")),
               std::overflow_error);
  // Other interests are unaffected: the wall is per-sequence, and the
  // envelope nonce counter (bumped once per publish above) still works.
  node.debug_set_publish_seq(kQuery, 7);
  EXPECT_TRUE(
      node.publish_sample(runner->network(), kQuery, support::bytes_of("s")));
}

}  // namespace
}  // namespace ldke::core
