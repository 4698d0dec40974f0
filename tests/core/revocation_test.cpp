#include <gtest/gtest.h>

#include "crypto/prf.hpp"
#include "test_helpers.hpp"
#include "wsn/messages.hpp"

namespace ldke::core {
namespace {

using testing::after_key_setup;
using testing::after_routing;
using testing::small_config;

ClusterId some_head(const ProtocolRunner& runner, std::size_t skip = 0) {
  for (net::NodeId id = 1; id < runner.node_count(); ++id) {
    if (runner.node(id).was_head()) {
      if (skip == 0) return runner.node(id).cid();
      --skip;
    }
  }
  return kNoCluster;
}

TEST(Revocation, RevokedClusterKeyDeletedNetworkWide) {
  auto runner = after_key_setup();
  const ClusterId victim = some_head(*runner);
  ASSERT_NE(victim, kNoCluster);
  std::size_t holders_before = 0;
  for (net::NodeId id = 0; id < runner->node_count(); ++id) {
    if (runner->node(id).keys().key_for(victim)) ++holders_before;
  }
  ASSERT_GE(holders_before, 1u);

  ASSERT_TRUE(
      runner->base_station()->revoke_clusters(runner->network(), {victim}));
  runner->run_for(10.0);  // flood settles

  for (net::NodeId id = 0; id < runner->node_count(); ++id) {
    EXPECT_FALSE(runner->node(id).keys().key_for(victim).has_value())
        << "node " << id << " still holds the revoked key";
  }
}

TEST(Revocation, MembersOfRevokedClusterAreEvicted) {
  auto runner = after_key_setup();
  const ClusterId victim = some_head(*runner);
  std::vector<net::NodeId> members;
  for (net::NodeId id = 0; id < runner->node_count(); ++id) {
    if (runner->node(id).cid() == victim) members.push_back(id);
  }
  runner->base_station()->revoke_clusters(runner->network(), {victim});
  runner->run_for(10.0);
  for (net::NodeId id : members) {
    EXPECT_EQ(runner->node(id).role(), Role::kEvicted);
    EXPECT_EQ(runner->node(id).keys().size(), 0u);
  }
}

TEST(Revocation, OtherClustersUnaffected) {
  auto runner = after_key_setup();
  const ClusterId victim = some_head(*runner);
  const ClusterId bystander = some_head(*runner, 1);
  ASSERT_NE(bystander, kNoCluster);
  ASSERT_NE(victim, bystander);
  std::size_t holders_before = 0;
  for (net::NodeId id = 0; id < runner->node_count(); ++id) {
    if (runner->node(id).cid() == victim) continue;
    if (runner->node(id).keys().key_for(bystander)) ++holders_before;
  }
  runner->base_station()->revoke_clusters(runner->network(), {victim});
  runner->run_for(10.0);
  std::size_t holders_after = 0;
  for (net::NodeId id = 0; id < runner->node_count(); ++id) {
    if (runner->node(id).role() == Role::kEvicted) continue;
    if (runner->node(id).keys().key_for(bystander)) ++holders_after;
  }
  EXPECT_GE(holders_after, holders_before > 0 ? holders_before - 1 : 0);
}

TEST(Revocation, ForgedChainElementRejectedEverywhere) {
  auto runner = after_key_setup();
  const ClusterId victim = some_head(*runner);
  wsn::RevokeBody body;
  body.revoked_cids = {victim};
  body.chain_element.bytes.fill(0x5f);  // not on the chain
  body.tag = wsn::revoke_tag(body.chain_element, body.revoked_cids);
  net::Packet pkt{net::kNoNode, net::PacketKind::kRevoke, wsn::encode(body)};
  runner->network().channel().broadcast_from(
      {runner->config().side_m / 2, runner->config().side_m / 2},
      runner->config().side_m, pkt);
  runner->run_for(5.0);
  EXPECT_GE(runner->network().counters().value("revoke.bad_chain"), 1u);
  // The key survives.
  EXPECT_TRUE(runner->node(victim).keys().key_for(victim).has_value());
}

TEST(Revocation, TamperedCidListRejected) {
  auto runner = after_key_setup();
  const ClusterId victim = some_head(*runner);
  const ClusterId innocent = some_head(*runner, 1);

  // Record the genuine command, then alter the revoked list: the tag is
  // keyed by the chain element, so the forgery must fail.
  net::Packet recorded;
  bool have = false;
  runner->network().channel().set_sniffer([&](const net::Packet& pkt) {
    if (!have && pkt.kind == net::PacketKind::kRevoke) {
      recorded = pkt;
      have = true;
    }
  });
  runner->base_station()->revoke_clusters(runner->network(), {victim});
  runner->run_for(10.0);
  ASSERT_TRUE(have);

  auto body = wsn::decode<wsn::RevokeBody>(recorded.payload);
  ASSERT_TRUE(body.has_value());
  body->revoked_cids = {innocent};  // tag no longer matches
  net::Packet forged{net::kNoNode, net::PacketKind::kRevoke,
                     wsn::encode(*body)};
  const auto before = runner->network().counters().value("revoke.bad_tag");
  runner->network().channel().broadcast_from(
      {runner->config().side_m / 2, runner->config().side_m / 2},
      runner->config().side_m, forged);
  runner->run_for(5.0);
  EXPECT_GT(runner->network().counters().value("revoke.bad_tag"), before);
  EXPECT_TRUE(runner->node(innocent).keys().key_for(innocent).has_value());
}

TEST(Revocation, FloodCopiesCountAsDuplicatesNotForgeries) {
  auto runner = after_key_setup();
  const ClusterId victim = some_head(*runner);
  ASSERT_TRUE(
      runner->base_station()->revoke_clusters(runner->network(), {victim}));
  runner->run_for(10.0);  // flood settles
  // Every node hears the command again from each forwarding neighbor;
  // those copies are duplicates of an accepted element, not forgeries.
  const obs::MetricRegistry& counters = runner->network().counters();
  EXPECT_GT(counters.value("revoke.duplicate"), 0u);
  EXPECT_EQ(counters.value("revoke.bad_chain"), 0u);
}

TEST(Revocation, SequentialCommandsUseSuccessiveChainElements) {
  auto runner = after_key_setup();
  const ClusterId first = some_head(*runner);
  const ClusterId second = some_head(*runner, 1);
  ASSERT_NE(second, kNoCluster);
  runner->base_station()->revoke_clusters(runner->network(), {first});
  runner->run_for(10.0);
  runner->base_station()->revoke_clusters(runner->network(), {second});
  runner->run_for(10.0);
  for (net::NodeId id = 0; id < runner->node_count(); ++id) {
    EXPECT_FALSE(runner->node(id).keys().key_for(first).has_value());
    EXPECT_FALSE(runner->node(id).keys().key_for(second).has_value());
  }
}

TEST(Revocation, ChainExhaustionReturnsFalse) {
  auto cfg = small_config();
  cfg.protocol.revocation_chain_length = 2;
  auto runner = after_key_setup(cfg);
  EXPECT_TRUE(runner->base_station()->revoke_clusters(runner->network(), {}));
  EXPECT_TRUE(runner->base_station()->revoke_clusters(runner->network(), {}));
  EXPECT_FALSE(runner->base_station()->revoke_clusters(runner->network(), {}));
}

TEST(Revocation, EvictedNodesStopOriginatingTraffic) {
  auto runner = after_routing();
  const ClusterId victim = some_head(*runner);
  // Pick a member of the victim cluster that is not the base station.
  net::NodeId member = net::kNoNode;
  for (net::NodeId id = 1; id < runner->node_count(); ++id) {
    if (runner->node(id).cid() == victim) {
      member = id;
      break;
    }
  }
  ASSERT_NE(member, net::kNoNode);
  runner->base_station()->revoke_clusters(runner->network(), {victim});
  runner->run_for(10.0);
  EXPECT_FALSE(runner->node(member).send_reading(runner->network(),
                                                 support::bytes_of("x")));
}

}  // namespace
}  // namespace ldke::core
