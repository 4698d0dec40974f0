#include "attacks/sybil.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/base_station.hpp"

namespace ldke::attacks {
namespace {

std::unique_ptr<core::ProtocolRunner> routed_runner(std::uint64_t seed = 53) {
  core::RunnerConfig cfg;
  cfg.node_count = 300;
  cfg.density = 12.0;
  cfg.side_m = 400.0;
  cfg.seed = seed;
  auto runner = std::make_unique<core::ProtocolRunner>(cfg);
  runner->run_key_setup();
  runner->run_routing_setup();
  return runner;
}

TEST(Sybil, HopLayerCannotDistinguishButBaseStationCan) {
  auto runner = routed_runner();
  Adversary adversary{*runner};
  const auto& material = adversary.capture(150);
  const auto result = run_sybil_attack(*runner, material, 10);
  EXPECT_EQ(result.identities, 10u);
  // The captured cluster key makes the envelopes verify locally...
  EXPECT_GT(result.hop_accepted, 0u);
  // ...but the base station accepts none of the claimed identities: the
  // attacker cannot produce a valid Step-1 envelope without each Ki.
  EXPECT_EQ(result.bs_accepted, 0u);
  EXPECT_GE(result.bs_rejected, 1u);
}

TEST(Sybil, ScalesWithIdentitiesButNeverReachesTheBaseStation) {
  auto runner = routed_runner(59);
  Adversary adversary{*runner};
  const auto& material = adversary.capture(77);
  const auto small = run_sybil_attack(*runner, material, 3);
  const auto large = run_sybil_attack(*runner, material, 30);
  EXPECT_GE(large.hop_accepted, small.hop_accepted);
  EXPECT_EQ(small.bs_accepted + large.bs_accepted, 0u);
}

/// \p source's route to the base station, the source first.
std::vector<net::NodeId> route_of(core::ProtocolRunner& runner,
                                  net::NodeId source) {
  std::vector<net::NodeId> route{source};
  while (route.back() != runner.base_station()->id() &&
         route.size() <= runner.node_count()) {
    const net::NodeId parent = runner.node(route.back()).routing().parent();
    if (parent == net::kNoNode) break;
    route.push_back(parent);
  }
  return route;
}

std::size_t readings_from(core::ProtocolRunner& runner, net::NodeId source) {
  std::size_t count = 0;
  for (const core::Reading& r : runner.base_station()->readings()) {
    count += r.source == source ? 1 : 0;
  }
  return count;
}

TEST(Sybil, LegitimateTrafficUnaffectedDuringAttack) {
  // Precondition: no honest route passes through the captured node.  The
  // forged frames spend its nonce space, so its neighbours reject its own
  // forwards afterwards (ForgedNoncesCostTheCapturedNodeItsForwards).
  auto runner = routed_runner(61);
  const net::NodeId captured = 200;
  Adversary adversary{*runner};
  const auto& material = adversary.capture(captured);
  (void)run_sybil_attack(*runner, material, 15);
  std::vector<net::NodeId> sources;
  for (net::NodeId id = 1; id < runner->node_count(); id += 43) {
    const auto route = route_of(*runner, id);
    if (std::find(route.begin(), route.end(), captured) != route.end()) {
      continue;
    }
    if (runner->node(id).send_reading(runner->network(),
                                      support::bytes_of("legit"))) {
      sources.push_back(id);
    }
  }
  ASSERT_GE(sources.size(), 5u);
  runner->run_for(10.0);
  for (const net::NodeId source : sources) {
    EXPECT_EQ(readings_from(*runner, source), 1u) << "source " << source;
  }
}

TEST(Sybil, ForgedNoncesCostTheCapturedNodeItsForwards) {
  // The sanctioned loss: the forged frames carry the captured node's id
  // with nonces from 0xF0000000, so its neighbours' replay state for that
  // id moves past every nonce the honest node will use, and they drop its
  // own forwards as replays.  The adversary owns that id's nonce space.
  auto runner = routed_runner(61);
  // The relay: the first hop of the longest route.
  std::vector<net::NodeId> longest;
  for (net::NodeId id = 1; id < runner->node_count(); ++id) {
    const auto route = route_of(*runner, id);
    if (route.back() == runner->base_station()->id() &&
        route.size() > longest.size()) {
      longest = route;
    }
  }
  ASSERT_GE(longest.size(), 3u);
  const net::NodeId source = longest[0];
  const net::NodeId relay = longest[1];
  Adversary adversary{*runner};
  const auto& material = adversary.capture(relay);
  (void)run_sybil_attack(*runner, material, 15);

  const auto& counters = runner->network().counters();
  const std::uint64_t replays = counters.value("envelope.replay");
  ASSERT_TRUE(runner->node(source).send_reading(runner->network(),
                                                support::bytes_of("legit")));
  runner->run_for(10.0);
  EXPECT_GT(counters.value("envelope.replay"), replays);
  EXPECT_EQ(readings_from(*runner, source), 0u);
}

}  // namespace
}  // namespace ldke::attacks
