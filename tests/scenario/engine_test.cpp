#include "scenario/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/runner.hpp"
#include "net/topology.hpp"
#include "obs/audit.hpp"
#include "scenario/mobility.hpp"

namespace ldke::scenario {
namespace {

/// Small but fully dynamic: mobility + churn + duty + a scripted wall,
/// then a recluster and a recovery window.
ScenarioSpec small_spec() {
  ScenarioSpec spec;
  spec.name = "engine_test";
  spec.nodes = 250;
  spec.density = 10.0;
  spec.side_m = 600.0;
  spec.motion.model = MotionModel::kRandomWaypoint;
  spec.motion.epoch_s = 0.25;
  spec.motion.speed_min_mps = 2.0;
  spec.motion.speed_max_mps = 10.0;
  spec.motion.pause_s = 0.5;
  spec.churn = {2.0, 1.0, 2.0};
  spec.duty = {0.5, 0.7};
  spec.data.refresh_interval_s = 0.4;
  PhaseSpec calm;
  calm.name = "calm";
  calm.duration_s = 1.0;
  PhaseSpec storm;
  storm.name = "storm";
  storm.duration_s = 1.5;
  storm.mobility = true;
  storm.churn = true;
  storm.duty = true;
  storm.recluster_after = true;
  storm.events.push_back({ScriptedEvent::Kind::kPartition, 0.5, 300.0});
  storm.events.push_back({ScriptedEvent::Kind::kHeal, 1.0, 0.0});
  PhaseSpec recovered;
  recovered.name = "recovered";
  recovered.duration_s = 1.0;
  spec.phases = {calm, storm, recovered};
  return spec;
}

ScenarioStats run_once(const ScenarioSpec& spec, std::uint64_t seed,
                       std::size_t lanes = 1) {
  core::RunnerConfig config = ScenarioEngine::make_runner_config(spec, seed);
  config.kernel.lanes = lanes;
  core::ProtocolRunner runner{config};
  ScenarioEngine engine{runner, spec};
  return engine.run();
}

TEST(ScenarioEngine, SameSeedIsBitIdentical) {
  const ScenarioSpec spec = small_spec();
  const ScenarioStats a = run_once(spec, 7);
  const ScenarioStats b = run_once(spec, 7);
  EXPECT_EQ(a.trace_digest, b.trace_digest);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  const ScenarioStats c = run_once(spec, 8);
  EXPECT_NE(a.to_json().dump(), c.to_json().dump());
}

TEST(ScenarioEngine, ExplicitLaneOneMatchesDefault) {
  const ScenarioSpec spec = small_spec();
  const ScenarioStats a = run_once(spec, 7);
  const ScenarioStats b = run_once(spec, 7, /*lanes=*/1);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
}

TEST(ScenarioEngine, DynamicsActuallyBite) {
  const ScenarioSpec spec = small_spec();
  const ScenarioStats stats = run_once(spec, 7);
  ASSERT_EQ(stats.phases.size(), 3u);
  const PhaseStats& calm = stats.phases[0];
  const PhaseStats& storm = stats.phases[1];
  const PhaseStats& recovered = stats.phases[2];

  // The calm phase is a healthy static network. The ratio sits well
  // below 1.0 even here: at refresh_interval_s = 0.4 every hash-refresh
  // round re-keys the deployment instantly, so readings in flight under
  // the old epoch fail authentication and drop (envelope.auth_fail).
  EXPECT_EQ(calm.leaves + calm.fails + calm.joins, 0u);
  EXPECT_GT(calm.delivered, 0u);
  EXPECT_GT(calm.delivery_ratio(), 0.3);

  // The storm runs every dynamic at once...
  EXPECT_GT(storm.motion_epochs, 0u);
  EXPECT_GT(storm.leaves + storm.fails, 0u);
  EXPECT_GT(storm.joins, 0u);
  EXPECT_GT(storm.sleeps, 0u);
  EXPECT_EQ(storm.partitions, 1u);
  EXPECT_EQ(storm.heals, 1u);
  EXPECT_EQ(storm.reclustered, 1u);
  // ... and the radio gates see it: sleeping/departed sources are
  // suppressed before they transmit (attempts without originations),
  // in-flight frames to sleepers/leavers drop, the wall blocks traffic.
  EXPECT_GT(storm.attempts, storm.originated);
  EXPECT_GT(storm.dropped_gone, 0u);
  EXPECT_GT(storm.dropped_partition, 0u);
  EXPECT_LT(storm.delivery_ratio(), calm.delivery_ratio());

  // Recovery: recluster + routing rebuild restores a working tree.
  EXPECT_GT(recovered.delivered, 0u);
  EXPECT_EQ(stats.reclusters, 1u);
}

TEST(ScenarioEngine, DutyCyclersCatchUpOnHashRefresh) {
  // Duty cycling only — every node must end at the global hash epoch
  // even though sleepers miss refresh rounds while their radio is off.
  ScenarioSpec spec;
  spec.name = "duty_only";
  spec.nodes = 150;
  spec.density = 10.0;
  spec.side_m = 500.0;
  spec.duty = {0.5, 0.5};
  spec.data.refresh_interval_s = 0.2;
  PhaseSpec phase;
  phase.name = "dozing";
  phase.duration_s = 2.0;
  phase.duty = true;
  spec.phases = {phase};

  core::RunnerConfig config = ScenarioEngine::make_runner_config(spec, 11);
  core::ProtocolRunner runner{config};
  ScenarioEngine engine{runner, spec};
  const ScenarioStats stats = engine.run();

  const PhaseStats& ps = stats.phases[0];
  EXPECT_GT(ps.refresh_rounds, 0u);
  EXPECT_GT(ps.sleeps, 0u);
  EXPECT_GT(ps.catch_up_epochs, 0u);  // wakers replayed missed rounds
  EXPECT_EQ(ps.hash_epoch_lag_end, 0.0);
  const auto global = static_cast<std::uint32_t>(ps.refresh_rounds);
  for (const auto& node : runner.nodes()) {
    EXPECT_EQ(node->hash_epoch(), global) << "node " << node->id();
  }
}

TEST(ScenarioEngine, EmitsAuditStreamAndPerPhaseHealth) {
  ScenarioSpec spec = small_spec();
  spec.data.evict_interval_s = 0.9;  // one eviction inside the storm
  core::RunnerConfig config = ScenarioEngine::make_runner_config(spec, 7);
  core::ProtocolRunner runner{config};
  obs::AuditSink audit;
  runner.network().set_audit_sink(&audit);
  ScenarioEngine engine{runner, spec};
  const ScenarioStats stats = engine.run();
  ASSERT_EQ(stats.phases.size(), 3u);
  const PhaseStats& storm = stats.phases[1];

  // Every scenario dynamic left its typed record, with counts matching
  // the phase stats tallied independently by the engine.
  const std::vector<obs::AuditEvent> events = audit.merged();
  const auto count_of = [&](obs::AuditKind kind) {
    return static_cast<std::uint64_t>(std::count_if(
        events.begin(), events.end(),
        [kind](const obs::AuditEvent& e) { return e.kind == kind; }));
  };
  EXPECT_GT(count_of(obs::AuditKind::kKeyEstablished), 0u);
  EXPECT_GT(count_of(obs::AuditKind::kMemberJoined), 0u);
  EXPECT_GT(count_of(obs::AuditKind::kRefreshRound), 0u);
  EXPECT_GT(count_of(obs::AuditKind::kRefreshApplied), 0u);
  EXPECT_GT(count_of(obs::AuditKind::kEvictionIssued), 0u);
  std::uint64_t leaves = 0, fails = 0, sleeps = 0, partitions = 0, heals = 0,
                joins = 0;
  for (const PhaseStats& ps : stats.phases) {
    leaves += ps.leaves;
    fails += ps.fails;
    sleeps += ps.sleeps;
    partitions += ps.partitions;
    heals += ps.heals;
    joins += ps.joins;
  }
  EXPECT_EQ(count_of(obs::AuditKind::kNodeLeft), leaves);
  EXPECT_EQ(count_of(obs::AuditKind::kNodeFailed), fails);
  EXPECT_EQ(count_of(obs::AuditKind::kSleep), sleeps);
  EXPECT_EQ(count_of(obs::AuditKind::kPartition), partitions);
  EXPECT_EQ(count_of(obs::AuditKind::kHeal), heals);
  EXPECT_EQ(count_of(obs::AuditKind::kJoinStarted), joins);
  EXPECT_GT(storm.sleeps, 0u);  // the comparisons above had teeth

  // One health sample per phase, in phase order, internally consistent.
  const auto& health = engine.health();
  ASSERT_EQ(health.size(), stats.phases.size());
  for (std::size_t i = 0; i < health.size(); ++i) {
    const obs::HealthSample& h = health[i];
    EXPECT_EQ(h.phase, stats.phases[i].name);
    EXPECT_GT(h.active_nodes, 0u);
    EXPECT_LE(h.secured_links, h.live_links);
    EXPECT_GE(h.secured_link_fraction, 0.0);
    EXPECT_LE(h.secured_link_fraction, 1.0);
    EXPECT_GE(h.key_components, 1u);
    EXPECT_LE(h.largest_component, h.active_nodes);
    EXPECT_EQ(h.delivered, stats.phases[i].delivered);
  }
  // The healthy static phase is near-fully secured, with one dominant
  // key-graph component (a handful of edge/singleton clusters may sit
  // outside it).
  EXPECT_GT(health[0].secured_link_fraction, 0.9);
  EXPECT_LT(health[0].key_components, health[0].active_nodes / 10);
  EXPECT_GT(health[0].largest_component, health[0].active_nodes / 2);
}

/// Per-link oracle for the one-way key chain (DESIGN.md §10).  Every
/// stored key for cluster c at hash epoch e is F^e(K0_c), so on every
/// live link (both ends active, in range) "both ends hold some cluster
/// id at the same hash epoch" must agree with "both ends hold byte-equal
/// keys for some shared cluster id".  A key committed off the chain —
/// a §IV-E join candidate that missed a §IV-C refresh, or one that
/// straddled a recluster swap — shows up as a cid and epoch match with
/// unequal bytes.  The check runs from a self-rescheduling event, so it
/// sees mid-run states that a phase-boundary sample never would.
struct LinkOracle {
  std::uint64_t probes = 0;
  std::uint64_t links = 0;    ///< live links visited, over all probes
  std::uint64_t secured = 0;  ///< of which both ends hold equal key bytes
  std::uint64_t mismatches = 0;
  std::string first_mismatch;

  LinkOracle() = default;
  LinkOracle(const LinkOracle&) = delete;  // scheduled events hold `this`
  LinkOracle& operator=(const LinkOracle&) = delete;

  /// Checks at \p at and every \p period after it.  The chain only
  /// reads node state, so the run is the one the engine makes alone.
  void arm(core::ProtocolRunner& runner, sim::SimTime at,
           sim::SimTime period) {
    runner.sim().schedule_at(at, [this, &runner, at, period] {
      check(runner);
      arm(runner, at + period, period);
    });
  }

  void check(core::ProtocolRunner& runner) {
    ++probes;
    const net::Network& net = runner.network();
    for (net::NodeId u = 0; u < runner.node_count(); ++u) {
      if (!net.is_active(u)) continue;
      const core::SensorNode& a = runner.node(u);
      for (const net::NodeId v : net.topology().neighbors(u)) {
        if (v <= u || !net.is_active(v)) continue;
        const core::SensorNode& b = runner.node(v);
        bool same_cid = false;
        bool same_key = false;
        for (const auto& [cid, key] : a.keys().all()) {
          const auto other = b.keys().key_for(cid);
          if (!other) continue;
          same_cid = true;
          same_key = same_key || *other == key;
        }
        const bool by_epoch = same_cid && a.hash_epoch() == b.hash_epoch();
        ++links;
        if (same_key) ++secured;
        if (by_epoch != same_key && mismatches++ == 0) {
          first_mismatch = "t=" + std::to_string(runner.sim().now().ns()) +
                           "ns link " + std::to_string(u) + "-" +
                           std::to_string(v) + " epochs " +
                           std::to_string(a.hash_epoch()) + "/" +
                           std::to_string(b.hash_epoch()) +
                           (same_key ? " bytes equal" : " bytes differ");
        }
      }
    }
  }
};

/// Runs \p spec under the oracle (every 50 ms of simulated time, and
/// once after run()) and expects it clean; returns the stats for the
/// caller's own checks.
ScenarioStats run_under_oracle(const ScenarioSpec& spec, std::uint64_t seed) {
  LinkOracle oracle;  // outlives the runner and its pending events
  core::ProtocolRunner runner{ScenarioEngine::make_runner_config(spec, seed)};
  ScenarioEngine engine{runner, spec};
  const sim::SimTime period = sim::SimTime::from_seconds(0.05);
  oracle.arm(runner, period, period);
  const ScenarioStats stats = engine.run();
  const std::uint64_t mid_run = oracle.probes;
  oracle.check(runner);
  // The chain ran through every phase, and both sides of the
  // equivalence were exercised: secured links, and live links left
  // unsecured.
  EXPECT_GE(mid_run, static_cast<std::uint64_t>(stats.duration_s / 0.05))
      << "seed " << seed;
  EXPECT_GT(oracle.secured, 0u) << "seed " << seed;
  EXPECT_GT(oracle.links, oracle.secured) << "seed " << seed;
  EXPECT_EQ(oracle.mismatches, 0u)
      << "seed " << seed << ": first mismatch " << oracle.first_mismatch;
  return stats;
}

TEST(ScenarioEngine, LinkOracleHoldsThroughChurnAndEvictions) {
  // The spec stacks the hard cases: mobility, churn, duty sleepers, a
  // partition wave, eviction, and a mid-run recluster.
  ScenarioSpec spec = small_spec();
  spec.data.evict_interval_s = 0.9;
  const ScenarioStats stats = run_under_oracle(spec, 7);
  ASSERT_EQ(stats.phases.size(), 3u);
  EXPECT_GT(stats.phases[1].leaves + stats.phases[1].fails, 0u);
  EXPECT_EQ(stats.reclusters, 1u);
  // The oracle only reads: the run is the one the engine makes alone.
  EXPECT_EQ(stats.to_json().dump(), run_once(spec, 7).to_json().dump());
}

TEST(ScenarioEngine, LinkOracleHoldsForJoinsStraddlingRecluster) {
  // Regression: a §IV-E join window that straddles a §IV-C recluster
  // used to commit pre-rotation candidate keys — a permanently
  // unauthenticatable "member" whose cid and epoch match its neighbors'
  // while its key bytes do not.  The recluster now voids in-flight join
  // buffers, defers §IV-E replies while a round is active, and resets
  // the reply guard at the swap so the retry lands in the new epoch.  A
  // join rate this high against a 0.25 s join window guarantees
  // straddles.
  ScenarioSpec spec = small_spec();
  spec.churn = {1.0, 0.5, 12.0};
  spec.phases[1].duty = false;
  spec.phases[1].events.clear();
  for (const std::uint64_t seed : {1u, 3u, 7u}) {
    const ScenarioStats stats = run_under_oracle(spec, seed);
    EXPECT_GT(stats.joins, 0u) << "seed " << seed;
    EXPECT_EQ(stats.reclusters, 1u) << "seed " << seed;
  }
}

/// The sim instant \p at_s into the first phase.  Phase 0 starts where
/// key and routing setup leave the clock, which a twin deployment of
/// the same config reproduces before the engine under test runs.
sim::SimTime first_phase_instant(const ScenarioSpec& spec, std::uint64_t seed,
                                 double at_s) {
  core::ProtocolRunner twin{ScenarioEngine::make_runner_config(spec, seed)};
  twin.run_key_setup();
  twin.run_routing_setup();
  return twin.sim().now() + sim::SimTime::from_seconds(at_s);
}

/// Right after each motion epoch, two checks on the engine's topology:
/// its neighbor lists equal a from-scratch build over a copy of its
/// positions, and its positions are the mobility field's.  The second
/// holds when folding topology().positions() in the engine's digest
/// order (timeline digest, initial placement, then once per epoch)
/// reproduces ScenarioStats::trace_digest, which the engine folds from
/// its MobilityField.
struct TopologyOracle {
  std::uint64_t digest = 0;
  std::uint64_t epochs = 0;
  std::uint64_t list_mismatches = 0;
  std::uint64_t out_of_step = 0;  ///< checks that did not follow an epoch
  std::string first_mismatch;

  TopologyOracle() = default;
  // Scheduled events hold `this`.
  TopologyOracle(const TopologyOracle&) = delete;
  TopologyOracle& operator=(const TopologyOracle&) = delete;

  void fold(const net::Topology& topo) {
    for (const net::Vec2& p : topo.positions()) {
      digest = fnv1a64(digest, std::bit_cast<std::uint64_t>(p.x));
      digest = fnv1a64(digest, std::bit_cast<std::uint64_t>(p.y));
    }
  }

  /// Checks at \p at and every \p period after it, \p count times.  Each
  /// check is pushed by the one before it, which ran after that
  /// instant's motion epoch had pushed the next epoch, so at a shared
  /// instant the check runs after the epoch.
  void arm(core::ProtocolRunner& runner, sim::SimTime at, sim::SimTime period,
           int count) {
    runner.sim().schedule_at(at, [this, &runner, at, period, count] {
      check(runner.network().topology());
      if (count > 1) arm(runner, at + period, period, count - 1);
    });
  }

  void check(const net::Topology& topo) {
    if (topo.maintenance_stats().incremental_epochs != ++epochs) ++out_of_step;
    fold(topo);
    const net::Topology rebuilt = net::Topology::from_positions(
        {topo.positions().begin(), topo.positions().end()}, topo.range());
    for (net::NodeId id = 0; id < topo.size(); ++id) {
      const auto a = topo.neighbors(id);
      const auto b = rebuilt.neighbors(id);
      if (std::equal(a.begin(), a.end(), b.begin(), b.end())) continue;
      if (list_mismatches++ == 0) {
        first_mismatch = "epoch " + std::to_string(epochs) + " node " +
                         std::to_string(id);
      }
    }
  }
};

TEST(ScenarioEngine, TopologyMatchesFromScratchBuildAfterEveryEpoch) {
  ScenarioSpec spec = small_spec();
  spec.data.evict_interval_s = 0.9;  // eviction wave inside the storm
  const std::uint64_t seed = 7;
  const double epoch_s = spec.motion.epoch_s;
  const double storm_start_s = spec.phases[0].duration_s;
  const auto epochs =
      static_cast<int>(spec.phases[1].duration_s / epoch_s + 1e-9);
  const sim::SimTime storm_start =
      first_phase_instant(spec, seed, storm_start_s);
  const sim::SimTime period = sim::SimTime::from_seconds(epoch_s);

  TopologyOracle oracle;  // outlives the runner and its pending events
  core::ProtocolRunner runner{ScenarioEngine::make_runner_config(spec, seed)};
  ScenarioEngine engine{runner, spec};
  oracle.digest = engine.timeline().digest();
  oracle.fold(runner.network().topology());  // initial placement
  // Arm from inside the storm, after the engine pushed its first epoch.
  runner.sim().schedule_at(
      storm_start + sim::SimTime::from_seconds(epoch_s / 2), [&] {
        oracle.arm(runner, storm_start + period, period, epochs);
      });
  const ScenarioStats stats = engine.run();

  ASSERT_EQ(stats.phases.size(), 3u);
  EXPECT_EQ(stats.phases[1].motion_epochs, static_cast<std::uint64_t>(epochs));
  EXPECT_GT(stats.phases[1].joins, 0u);  // joiners are folded too
  EXPECT_EQ(oracle.epochs, static_cast<std::uint64_t>(epochs));
  EXPECT_EQ(oracle.out_of_step, 0u);
  EXPECT_EQ(oracle.list_mismatches, 0u) << oracle.first_mismatch;
  EXPECT_EQ(oracle.digest, stats.trace_digest);
  // The oracle only reads: the run is the one the engine makes alone.
  EXPECT_EQ(stats.to_json().dump(), run_once(spec, seed).to_json().dump());
}

/// One duty-cycled phase of \p duration_s, flipping every node several
/// times per second.
ScenarioSpec dozing_spec(double duration_s, double period_s) {
  ScenarioSpec spec;
  spec.name = "dozing";
  spec.nodes = 300;
  spec.density = 10.0;
  spec.side_m = 650.0;
  spec.duty = {period_s, 0.7};
  PhaseSpec phase;
  phase.name = "dozing";
  phase.duration_s = duration_s;
  phase.duty = true;
  spec.phases = {phase};
  return spec;
}

/// The timeline is streamed one event at a time, yet a timeline event
/// keeps its place among equal-time events.  A test event pushed
/// mid-phase for the exact instant of a scripted partition takes a
/// fresh sequence number, so it must see the wall, exactly as if the
/// whole timeline had been scheduled at phase start.  The duty flips
/// between the push and the wall give the check teeth: a stream that
/// numbered each event when its predecessor ran would put the wall
/// after the test event.
TEST(ScenarioEngine, MidPhaseEventAtAScriptedInstantSeesIt) {
  ScenarioSpec spec = dozing_spec(1.0, 0.2);
  spec.phases[0].events.push_back(
      {ScriptedEvent::Kind::kPartition, 0.5, 300.0});
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const sim::SimTime wall_at = first_phase_instant(spec, seed, 0.5);
    const sim::SimTime push_at = wall_at - sim::SimTime::from_seconds(0.4);
    core::ProtocolRunner runner{ScenarioEngine::make_runner_config(spec, seed)};
    obs::AuditSink audit;
    runner.network().set_audit_sink(&audit);
    ScenarioEngine engine{runner, spec};
    sim::Simulator& sim = runner.sim();
    bool probed = false;
    std::optional<double> wall;
    sim.schedule_at(push_at, [&] {
      sim.schedule_at(wall_at, [&] {
        probed = true;
        wall = runner.network().partition_x();
      });
    });
    const ScenarioStats stats = engine.run();
    ASSERT_TRUE(probed) << "seed " << seed;
    EXPECT_EQ(wall, std::optional<double>{300.0}) << "seed " << seed;
    EXPECT_EQ(stats.phases[0].partitions, 1u) << "seed " << seed;
    std::uint64_t flips_between = 0;
    for (const obs::AuditEvent& ev : audit.merged()) {
      const bool flip = ev.kind == obs::AuditKind::kSleep ||
                        ev.kind == obs::AuditKind::kWake;
      if (flip && ev.t_ns > push_at.ns() && ev.t_ns < wall_at.ns()) {
        ++flips_between;
      }
    }
    EXPECT_GT(flips_between, 0u) << "seed " << seed;
  }
}

/// Only the next due timeline event is ever pending, so the deepest
/// queue sampled through a duty-cycled phase whose timeline holds 20x
/// the node count stays under a bound set by the deployment, whatever
/// the phase length.  An engine that scheduled the whole timeline at
/// phase start would read about the timeline length here.  The phase's
/// event count is the size of the sequence block the engine reserves.
TEST(ScenarioEngine, StreamedTimelineKeepsTheQueueBounded) {
  for (const double duration_s : {2.0, 4.0}) {
    const ScenarioSpec spec = dozing_spec(duration_s, 0.1);
    const std::uint64_t seed = 5;
    const std::size_t timeline_events =
        Timeline{spec, seed}.phase_event_count(0);
    ASSERT_GE(timeline_events, 20 * spec.nodes);
    const sim::SimTime start = first_phase_instant(spec, seed, 0.0);
    const sim::SimTime end = start + sim::SimTime::from_seconds(duration_s);
    core::ProtocolRunner runner{ScenarioEngine::make_runner_config(spec, seed)};
    ScenarioEngine engine{runner, spec};
    sim::Simulator& sim = runner.sim();
    std::size_t samples = 0;
    std::size_t deepest = 0;
    const sim::SimTime period = sim::SimTime::from_seconds(0.01);
    std::function<void(sim::SimTime)> sample = [&](sim::SimTime at) {
      if (at >= end) return;
      sim.schedule_at(at, [&, at] {
        ++samples;
        deepest = std::max(deepest, sim.pending_events());
        sample(at + period);
      });
    };
    sample(start + period);
    engine.run();
    EXPECT_GE(samples, static_cast<std::size_t>(duration_s / 0.01) - 1);
    EXPECT_LT(deepest, spec.nodes)
        << duration_s << " s phase, " << timeline_events
        << " timeline events";
  }
}

/// Churn that outlasts the deployment: five sensors, leaves at 8 Hz
/// for 2 s.  Departures drawn after the last sensor left are dropped,
/// so a phase without a scripted wall records no partition and no heal.
TEST(ScenarioEngine, DepartureWithNobodyLeftIsDropped) {
  ScenarioSpec spec;
  spec.name = "drain";
  spec.nodes = 6;
  spec.side_m = 200.0;
  spec.churn.leave_rate_hz = 8.0;
  PhaseSpec phase;
  phase.name = "drain";
  phase.duration_s = 2.0;
  phase.churn = true;
  spec.phases = {phase};
  const ScenarioStats stats = run_once(spec, 1);
  ASSERT_EQ(stats.phases.size(), 1u);
  EXPECT_EQ(stats.leaves, 5u);
  EXPECT_EQ(stats.phases[0].partitions, 0u);
  EXPECT_EQ(stats.phases[0].heals, 0u);
}

/// The engine checks its spec before it builds anything from it.
TEST(ScenarioEngine, RejectsAnInvalidSpecByName) {
  ScenarioSpec spec = small_spec();
  core::ProtocolRunner runner{ScenarioEngine::make_runner_config(spec, 3)};
  spec.phases.clear();
  try {
    ScenarioEngine engine{runner, spec};
    FAIL() << "an empty phase list was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_EQ(std::string(e.what()).rfind("ScenarioEngine: invalid spec", 0),
              0u)
        << e.what();
  }
}

TEST(ScenarioEngine, RefusesShardedKernels) {
  ScenarioSpec spec = small_spec();
  core::RunnerConfig config = ScenarioEngine::make_runner_config(spec, 3);
  config.kernel.lanes = 4;
  config.channel.loss_probability = 0.0;
  core::ProtocolRunner runner{config};
  if (runner.sim().kernel() == nullptr) {
    GTEST_SKIP() << "kernel clamped to serial on this configuration";
  }
  // Fails at construction — before setup burns any work.
  EXPECT_THROW((ScenarioEngine{runner, spec}), std::invalid_argument);
}

TEST(ScenarioEngine, RejectsMismatchedRunnerConfig) {
  const ScenarioSpec spec = small_spec();
  core::RunnerConfig config = ScenarioEngine::make_runner_config(spec, 3);
  config.node_count = 99;  // diverges from the spec
  core::ProtocolRunner runner{config};
  EXPECT_THROW((ScenarioEngine{runner, spec}), std::invalid_argument);
}

}  // namespace
}  // namespace ldke::scenario
