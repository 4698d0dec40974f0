/// Failure injection: the whole protocol lifecycle under an unreliable
/// channel.  The paper's setup is a single round of one-shot broadcasts,
/// so loss degrades coverage gracefully rather than catastrophically;
/// these sweeps pin down "gracefully".

#include <gtest/gtest.h>

#include <cmath>

#include "core/metrics.hpp"
#include "core/runner.hpp"

namespace ldke::core {
namespace {

class LossSweep : public ::testing::TestWithParam<double> {
 protected:
  RunnerConfig config() const {
    RunnerConfig cfg;
    cfg.node_count = 300;
    cfg.density = 14.0;
    cfg.side_m = 400.0;
    cfg.seed = 2718;
    cfg.channel.loss_probability = GetParam();
    return cfg;
  }
};

TEST_P(LossSweep, EveryNodeStillDecides) {
  ProtocolRunner runner{config()};
  runner.run_key_setup();
  for (const auto& node : runner.nodes()) {
    // The election timer is local: loss can only convert members into
    // (singleton) heads, never leave a node undecided.
    EXPECT_TRUE(node->keys().has_own());
    EXPECT_TRUE(node->master_erased());
  }
}

TEST_P(LossSweep, KeyAgreementNeverCorrupts) {
  // Loss may drop keys but must never create *disagreeing* keys.
  ProtocolRunner runner{config()};
  runner.run_key_setup();
  for (const auto& node : runner.nodes()) {
    for (const auto& [cid, key] : node->keys().all()) {
      EXPECT_EQ(key, runner.node(cid).secrets().cluster_key);
    }
  }
}

TEST_P(LossSweep, DeliveryDegradesGracefully) {
  ProtocolRunner runner{config()};
  runner.run_key_setup();
  runner.run_routing_setup(2.0);
  std::size_t sent = 0;
  for (net::NodeId id = 1; id < runner.node_count(); id += 5) {
    if (runner.node(id).send_reading(runner.network(),
                                     support::bytes_of("x"))) {
      ++sent;
    }
  }
  runner.run_for(15.0);
  const double loss = GetParam();
  const double delivered =
      static_cast<double>(runner.base_station()->readings().size());
  if (loss == 0.0) {
    EXPECT_EQ(delivered, static_cast<double>(sent));
  } else if (sent > 0) {
    // No retransmissions exist in the protocol, so an h-hop path
    // survives with (1-p)^h; with h up to ~8 the floor at p=0.2 is a few
    // percent.  The test pins "graceful": clearly nonzero, no collapse.
    const double floor = std::pow(1.0 - loss, 9.0) * 0.5;
    EXPECT_GT(delivered / static_cast<double>(sent), floor);
  }
}

TEST_P(LossSweep, NoAuthFailuresJustAbsences) {
  // Loss must look like silence, never like forgery.
  ProtocolRunner runner{config()};
  runner.run_key_setup();
  runner.run_routing_setup(2.0);
  for (net::NodeId id = 1; id < runner.node_count(); id += 11) {
    runner.node(id).send_reading(runner.network(), support::bytes_of("x"));
  }
  runner.run_for(10.0);
  EXPECT_EQ(runner.network().counters().value("envelope.auth_fail"), 0u);
  EXPECT_EQ(runner.base_station()->e2e_auth_failures(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Rates, LossSweep,
                         ::testing::Values(0.0, 0.05, 0.1, 0.2),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "loss" +
                                  std::to_string(static_cast<int>(
                                      info.param * 100));
                         });

class CollisionLifecycle : public ::testing::Test {
 protected:
  static RunnerConfig base_config() {
    RunnerConfig cfg;
    cfg.node_count = 300;
    cfg.density = 14.0;
    cfg.side_m = 400.0;
    cfg.seed = 999;
    cfg.channel.model_collisions = true;
    return cfg;
  }

  /// Contention-aware timing: one 2-second jitter window per advert
  /// repeat, an erase deadline after the last one, and de-synchronized
  /// beacon rebroadcasts.
  static RunnerConfig tuned_config(std::uint32_t link_repeats) {
    RunnerConfig cfg = base_config();
    cfg.protocol.link_advert_repeats = link_repeats;
    cfg.protocol.link_phase_jitter_s = 2.0;
    cfg.protocol.master_erase_s =
        cfg.protocol.link_phase_start_s + 2.0 * link_repeats + 0.5;
    cfg.protocol.beacon_jitter_s = 0.3;
    return cfg;
  }

  struct Outcome {
    std::size_t attempted = 0;  ///< stride-9 sources asked to report
    std::size_t sent = 0;       ///< of those, the ones with a route
    std::size_t delivered = 0;
    std::uint64_t no_key = 0;   ///< link-translation failures
  };

  /// Runs setup + routing + staggered reporting.
  static Outcome run(const RunnerConfig& cfg) {
    ProtocolRunner runner{cfg};
    runner.run_key_setup();
    runner.run_routing_setup(2.0);
    Outcome out;
    for (net::NodeId id = 1; id < runner.node_count(); id += 9) {
      ++out.attempted;
      if (runner.node(id).send_reading(runner.network(),
                                       support::bytes_of("x"))) {
        ++out.sent;
      }
      runner.run_for(0.5);  // stagger: no CSMA exists in the model
    }
    runner.run_for(15.0);
    out.delivered = runner.base_station()->readings().size();
    out.no_key = runner.network().counters().value("envelope.no_key");
    return out;
  }
};

TEST_F(CollisionLifecycle, PaperTimingDegradesUnderContention) {
  // The paper's phase timings assume a contention-free channel (as in
  // SensorSimII).  With collisions modeled, the narrow link-advert and
  // beacon windows lose frames, break the bordering-key invariant
  // (envelope.no_key > 0) and wreck the delivery rate — a genuine
  // limitation this reproduction surfaces.  Delivery is counted per
  // attempted source: a source whose route died before it could send
  // lost its reading as surely as one whose frame collided.
  const Outcome paper = run(base_config());
  const Outcome tuned = run(tuned_config(1));
  ASSERT_GT(paper.attempted, 0u);
  ASSERT_EQ(paper.attempted, tuned.attempted);
  EXPECT_LT(2 * paper.delivered, paper.attempted);
  EXPECT_LT(2 * paper.delivered, tuned.delivered);
  EXPECT_GT(paper.no_key, 0u);
}

TEST_F(CollisionLifecycle, WidenedWindowsRestoreDelivery) {
  // Spreading the same one-shot adverts over a wider window removes the
  // contention and recovers delivery without any protocol change.
  const Outcome tuned = run(tuned_config(1));
  EXPECT_GT(tuned.sent, 0u);
  EXPECT_GT(tuned.delivered, tuned.sent / 2);
}

TEST_F(CollisionLifecycle, AdvertRepeatsAddFurtherMargin) {
  // Repeats (DESIGN.md §5 extension) add loss margin on top: coverage
  // of the bordering-key invariant must not be *worse* than one-shot.
  const Outcome once = run(tuned_config(1));
  const Outcome thrice = run(tuned_config(3));
  EXPECT_GT(thrice.delivered, thrice.sent / 2);
  EXPECT_LE(thrice.no_key, once.no_key + 10);
}

TEST_F(CollisionLifecycle, CsmaRestoresDeliveryWithPaperTiming) {
  // Carrier sensing fixes the contention without touching the protocol
  // timings at all: the MAC defers instead of colliding.
  RunnerConfig cfg = base_config();
  cfg.channel.csma = true;
  const Outcome csma = run(cfg);
  EXPECT_GT(csma.sent, 0u);
  EXPECT_GT(csma.delivered, csma.sent / 2);
}

TEST_F(CollisionLifecycle, SetupStatisticsStillConverge) {
  ProtocolRunner runner{base_config()};
  runner.run_key_setup();
  for (const auto& node : runner.nodes()) {
    EXPECT_TRUE(node->keys().has_own());
  }
  EXPECT_GT(runner.network().channel().collisions(), 0u);
}

}  // namespace
}  // namespace ldke::core
