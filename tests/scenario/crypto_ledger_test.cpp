/// Crypto conservation: every F, seal and open a run performs is charged
/// to exactly one account — a node's counters or the runner's residual,
/// which ProtocolRunner::crypto_totals() sums — so a sink installed
/// around the whole run, outermost, never sees an increment.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "attacks/adversary.hpp"
#include "core/base_station.hpp"
#include "core/dataplane.hpp"
#include "core/runner.hpp"
#include "crypto/obs.hpp"
#include "scenario/engine.hpp"
#include "support/hex.hpp"

namespace ldke {
namespace {

::testing::AssertionResult all_zero(const crypto::CryptoCounters& c) {
  if (c.seals == 0 && c.opens == 0 && c.open_failures == 0 &&
      c.prf_calls == 0 && c.sealed_bytes == 0 && c.opened_bytes == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "seals " << c.seals << ", opens " << c.opens << ", open_failures "
         << c.open_failures << ", prf_calls " << c.prf_calls
         << ", sealed_bytes " << c.sealed_bytes << ", opened_bytes "
         << c.opened_bytes;
}

core::RunnerConfig ledger_config() {
  core::RunnerConfig config;
  config.node_count = 150;
  config.density = 12.0;
  config.side_m = 300.0;
  config.seed = 11;
  return config;
}

TEST(CryptoLedger, HashRefreshChargesTheNodeThatDoesIt) {
  core::ProtocolRunner runner{ledger_config()};
  runner.run_key_setup();
  runner.run_routing_setup();
  crypto::CryptoCounters outside;
  const crypto::ScopedCryptoCounters outer{outside};

  core::SensorNode& node = runner.node(5);
  const std::uint64_t keys = node.keys().size();
  ASSERT_GT(keys, 0u);
  const std::uint64_t before = node.crypto_stats().prf_calls;
  node.apply_hash_refresh();  // Kc <- F(Kc) for every held key
  EXPECT_EQ(node.crypto_stats().prf_calls - before, keys);
  EXPECT_EQ(node.catch_up_hash_epoch(node.hash_epoch() + 2), 2u);
  EXPECT_EQ(node.crypto_stats().prf_calls - before, 3 * keys);

  // The revocation's tag is an HMAC, which the counters do not count;
  // whatever it does count lands on the base station.
  ASSERT_TRUE(runner.base_station()->revoke_clusters(runner.network(),
                                                     {node.cid()}));
  EXPECT_TRUE(all_zero(outside));
}

TEST(CryptoLedger, SteadyWindowLeavesNothingOutside) {
  crypto::CryptoCounters outside;
  const crypto::ScopedCryptoCounters outer{outside};
  core::ProtocolRunner runner{ledger_config()};
  runner.run_key_setup();
  runner.run_routing_setup();
  core::DataPlaneConfig dp;
  dp.duration_s = 3.0;
  dp.tick_interval_s = 0.05;
  dp.readings_per_tick = 16;
  dp.refresh_interval_s = 0.9;
  dp.evict_interval_s = 1.3;
  core::DataPlaneEngine engine{runner, dp};
  const core::DataPlaneStats stats = engine.run();
  ASSERT_EQ(stats.refresh_rounds, 3u);
  ASSERT_EQ(stats.clusters_evicted, 2u);
  EXPECT_TRUE(all_zero(outside));
  EXPECT_TRUE(all_zero(engine.crypto_stats()));
  const crypto::CryptoCounters totals = runner.crypto_totals();
  EXPECT_GT(totals.seals, 0u);
  EXPECT_GT(totals.opens, 0u);
  EXPECT_GT(totals.prf_calls, 0u);
}

/// The `ldke lifecycle` path: setup, routing, reporting, a §IV-C
/// re-clustering round, capture and §IV-D revocation, a §IV-E join.
TEST(CryptoLedger, LifecyclePathLeavesNothingOutside) {
  crypto::CryptoCounters outside;
  const crypto::ScopedCryptoCounters outer{outside};
  core::ProtocolRunner runner{ledger_config()};
  runner.run_key_setup();
  runner.run_routing_setup();
  std::size_t sent = 0;
  for (net::NodeId id = 1; id < runner.node_count(); id += 19) {
    sent += runner.node(id).send_reading(runner.network(),
                                         support::bytes_of("r"))
                ? 1
                : 0;
  }
  ASSERT_GT(sent, 0u);
  runner.run_for(10.0);
  runner.run_recluster_round();
  attacks::Adversary adversary{runner};
  const auto& material =
      adversary.capture(static_cast<net::NodeId>(runner.node_count() / 3));
  std::vector<core::ClusterId> exposed;
  for (const auto& [cid, key] : material.cluster_keys) exposed.push_back(cid);
  ASSERT_TRUE(
      runner.base_station()->revoke_clusters(runner.network(), exposed));
  runner.run_for(15.0);
  runner.deploy_new_node({150.0, 150.0});
  runner.run_for(2.0);
  EXPECT_TRUE(all_zero(outside));
  EXPECT_GT(runner.crypto_totals().prf_calls, 0u);
}

/// Churn, duty cycling with wake catch-ups inside and at the end of a
/// phase, evictions, joins and a recluster, all under one outer sink.
TEST(CryptoLedger, ScenarioLeavesNothingOutside) {
  scenario::ScenarioSpec spec;
  spec.name = "ledger";
  spec.nodes = 250;
  spec.density = 10.0;
  spec.side_m = 600.0;
  spec.motion.model = scenario::MotionModel::kRandomWaypoint;
  spec.motion.epoch_s = 0.25;
  spec.churn = {2.0, 1.0, 2.0};
  spec.duty = {0.5, 0.7};
  spec.data.refresh_interval_s = 0.4;
  spec.data.evict_interval_s = 0.6;
  scenario::PhaseSpec calm;
  calm.name = "calm";
  calm.duration_s = 1.0;
  scenario::PhaseSpec storm;
  storm.name = "storm";
  storm.duration_s = 1.5;
  storm.mobility = true;
  storm.churn = true;
  storm.duty = true;
  storm.recluster_after = true;
  scenario::PhaseSpec recovered = calm;
  recovered.name = "recovered";
  recovered.duty = true;
  spec.phases = {calm, storm, recovered};

  crypto::CryptoCounters outside;
  const crypto::ScopedCryptoCounters outer{outside};
  core::ProtocolRunner runner{
      scenario::ScenarioEngine::make_runner_config(spec, 7)};
  scenario::ScenarioEngine engine{runner, spec};
  const scenario::ScenarioStats stats = engine.run();

  std::uint64_t catch_ups = 0;
  std::uint64_t forced_wakes = 0;
  for (const scenario::PhaseStats& ps : stats.phases) {
    catch_ups += ps.catch_up_epochs;
    forced_wakes += ps.forced_wakes;
  }
  ASSERT_GT(catch_ups, 0u);
  ASSERT_GT(forced_wakes, 0u);
  ASSERT_GT(stats.joins, 0u);
  ASSERT_GT(stats.leaves + stats.fails, 0u);
  ASSERT_GT(runner.network().counters().value("revoke.issued"), 0u);
  EXPECT_TRUE(all_zero(outside));
  EXPECT_GT(runner.crypto_totals().prf_calls, 0u);
}

}  // namespace
}  // namespace ldke
