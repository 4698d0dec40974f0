/// Scenario-suite bench: degradation and recovery under dynamics, plus
/// the mobile-scale sweep behind the incremental topology maintenance
/// path.  Sections:
///
///  1. Canonical scenarios — three ScenarioSpecs (mobility sweep, churn
///     + duty cycling, partition/heal) through the packet-level
///     ScenarioEngine, timed with warmup + min-of-reps (the discipline
///     bench_dataplane established), then replayed at graph level under
///     LDKE and the baseline key schemes.
///  2. Mobile-scale sweep — per deployment size, the per-epoch cost of
///     incremental Topology::apply_displacements vs a from-scratch
///     update_positions rebuild under identical waypoint displacement
///     streams, with an element-identity check between the two paths,
///     plus one mobile-churn engine run for end-to-end wall time.  The
///     sweep deploys like every scenario (random_uniform's Hilbert ids)
///     and moves a mobile minority over static sensors
///     (LDKE_BENCH_SCENARIO_MOBILE_FRACTION, default 0.1) — the regime
///     the locality argument targets: incremental cost must track the
///     movers, a full rebuild pays for every node regardless.
///
/// Hard gates, any failure exits non-zero:
///   - determinism: every timed rerun of the same (spec, seed) must
///     produce a bit-identical ScenarioStats JSON,
///   - replay agreement: every graph replay must reproduce the engine's
///     trace digest,
///   - sweep identity: incremental and full-rebuild topologies must be
///     element-identical after every timed sweep, and
///   - sweep speedup: at >= kGateNodes (50,000) nodes the per-epoch
///     speedup must clear kMinSpeedup (5x).  It applies only when at
///     most kGateMobileFraction (10 %) of the nodes move, the regime it
///     was calibrated on: with every node moving, incremental and full
///     rebuild do the same work.
///
/// Results land in results/BENCH_scenarios.json.  Env knobs:
/// LDKE_BENCH_SCENARIO_NODES (default 1000), LDKE_BENCH_SCENARIO_REPS
/// (default 3), LDKE_BENCH_SCENARIO_SCALE (comma-separated sizes,
/// default "10000,50000,100000", "" disables the sweep),
/// LDKE_BENCH_SCENARIO_SCALE_ENGINE (default 1; 0 skips the per-size
/// engine runs), LDKE_BENCH_SCENARIO_MOBILE_FRACTION, LDKE_BENCH_OUT.

#include <cmath>
#include <string>
#include <utility>
#include <vector>

#include "baselines/global_key.hpp"
#include "baselines/ldke_adapter.hpp"
#include "baselines/random_predist.hpp"
#include "bench_common.hpp"
#include "net/topology.hpp"
#include "scenario/baseline_replay.hpp"
#include "scenario/engine.hpp"
#include "scenario/mobility.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace ldke;

using bench::seconds_since;

const std::uint64_t kSeed = bench::base_config().seed;

/// The sweep's speedup gate: incremental maintenance must beat a full
/// rebuild by kMinSpeedup at kGateNodes nodes and above, when at most
/// kGateMobileFraction of the nodes move.
constexpr double kMinSpeedup = 5.0;
constexpr std::size_t kGateNodes = 50000;
constexpr double kGateMobileFraction = 0.1;

/// The deployment area scales with the node count so density (and with
/// it cluster structure) stays comparable across LDKE_BENCH_SCENARIO_NODES.
double side_for(std::size_t nodes) {
  return 1000.0 * std::sqrt(static_cast<double>(nodes) / 600.0);
}

scenario::ScenarioSpec base_spec(std::size_t nodes, std::string name) {
  scenario::ScenarioSpec spec;
  spec.name = std::move(name);
  spec.nodes = nodes;
  spec.density = 10.0;
  spec.side_m = side_for(nodes);
  spec.data.refresh_interval_s = 1.0;
  return spec;
}

scenario::MotionConfig sweep_motion() {
  scenario::MotionConfig mc;
  mc.model = scenario::MotionModel::kRandomWaypoint;
  mc.epoch_s = 0.25;
  mc.speed_min_mps = 2.0;
  mc.speed_max_mps = 12.0;
  mc.pause_s = 0.5;
  return mc;
}

scenario::PhaseSpec phase(std::string name, double duration_s) {
  scenario::PhaseSpec p;
  p.name = std::move(name);
  p.duration_s = duration_s;
  return p;
}

scenario::ScenarioSpec mobility_spec(std::size_t nodes) {
  scenario::ScenarioSpec spec = base_spec(nodes, "mobility");
  spec.motion = sweep_motion();
  scenario::PhaseSpec moving = phase("moving", 2.0);
  moving.mobility = true;
  spec.phases = {phase("still", 1.0), moving, phase("settled", 1.0)};
  return spec;
}

scenario::ScenarioSpec churn_duty_spec(std::size_t nodes) {
  scenario::ScenarioSpec spec = base_spec(nodes, "churn_duty");
  spec.churn = {3.0, 2.0, 3.0};
  spec.duty = {1.0, 0.7};
  scenario::PhaseSpec stress = phase("stress", 2.0);
  stress.churn = true;
  stress.duty = true;
  stress.recluster_after = true;
  spec.phases = {phase("baseline", 1.0), stress, phase("recovered", 1.0)};
  return spec;
}

scenario::ScenarioSpec partition_spec(std::size_t nodes) {
  scenario::ScenarioSpec spec = base_spec(nodes, "partition");
  scenario::PhaseSpec walled = phase("walled", 2.0);
  walled.events.push_back(
      {scenario::ScriptedEvent::Kind::kPartition, 0.25, spec.side_m / 2});
  walled.events.push_back({scenario::ScriptedEvent::Kind::kHeal, 1.5, 0.0});
  spec.phases = {phase("baseline", 1.0), walled, phase("healed", 1.0)};
  return spec;
}

/// The sweep's end-to-end scenario: mobility + churn over a short
/// window, light offered load (the sweep measures topology and control
/// cost scaling, not radio capacity).
scenario::ScenarioSpec mobile_churn_spec(std::size_t nodes) {
  scenario::ScenarioSpec spec = base_spec(nodes, "mobile_churn");
  spec.motion = sweep_motion();
  spec.churn = {4.0, 2.0, 4.0};
  spec.data.tick_interval_s = 0.1;
  spec.data.readings_per_tick = 4;
  scenario::PhaseSpec storm = phase("storm", 1.0);
  storm.mobility = true;
  storm.churn = true;
  spec.phases = {storm};
  return spec;
}

scenario::ScenarioStats run_engine(const scenario::ScenarioSpec& spec) {
  core::ProtocolRunner runner{
      scenario::ScenarioEngine::make_runner_config(spec, kSeed)};
  scenario::ScenarioEngine engine{runner, spec};
  return engine.run();
}

// ---- section 2: incremental vs full-rebuild topology maintenance ----------

struct SweepPoint {
  std::size_t nodes = 0;
  double side_m = 0.0;
  double range_m = 0.0;
  double mobile_fraction = 0.0;
  double incr_epoch_s = 0.0;  ///< best per-epoch seconds, incremental
  double full_epoch_s = 0.0;  ///< best per-epoch seconds, full rebuild
  double movers_per_epoch = 0.0;
  double mean_degree = 0.0;
  bool identical = false;
  double engine_wall_s = 0.0;  ///< 0 when the engine run is disabled
  [[nodiscard]] double speedup() const noexcept {
    return incr_epoch_s > 0.0 ? full_epoch_s / incr_epoch_s : 0.0;
  }
};

/// Identical waypoint displacement streams (same seed) drive one
/// incrementally-patched topology and one rebuilt from scratch; only
/// the topology-maintenance call is inside the clock.  Both deploy as
/// every scenario does, with random_uniform's Hilbert ids.  The mobile
/// minority is every stride-th draw, picked through deployment_order();
/// the rest are frozen where they were deployed, which the two fields do
/// identically so their RNG streams stay in lockstep.
SweepPoint sweep_topology(std::size_t nodes, std::size_t reps,
                          double mobile_fraction) {
  constexpr std::size_t kWarmupEpochs = 2;
  constexpr std::size_t kEpochsPerRep = 5;
  SweepPoint pt;
  pt.nodes = nodes;
  pt.side_m = side_for(nodes);
  pt.mobile_fraction = mobile_fraction;
  // Unit-disk range from the density identity r = L*sqrt(d/(pi*N)).
  pt.range_m =
      pt.side_m * std::sqrt(10.0 / (M_PI * static_cast<double>(nodes)));

  support::Xoshiro256 rng_i{kSeed};
  support::Xoshiro256 rng_f{kSeed};
  net::Topology incr =
      net::Topology::random_uniform(nodes, pt.side_m, pt.range_m, rng_i);
  net::Topology full =
      net::Topology::random_uniform(nodes, pt.side_m, pt.range_m, rng_f);
  const scenario::MotionConfig mc = sweep_motion();
  scenario::MobilityField field_i{mc, incr.side(), incr.positions(), kSeed};
  scenario::MobilityField field_f{mc, full.side(), full.positions(), kSeed};
  const auto stride = static_cast<net::NodeId>(
      mobile_fraction > 0.0 && mobile_fraction < 1.0
          ? std::llround(1.0 / mobile_fraction)
          : 1);
  const std::span<const net::NodeId> order = incr.deployment_order();
  for (std::size_t draw = 0; draw < nodes; ++draw) {
    if (stride > 1 && draw % stride != 1) {
      field_i.freeze(order[draw]);
      field_f.freeze(order[draw]);
    }
  }

  // One waypoint epoch down both paths.  Only the topology-maintenance
  // call sits inside the clock; walker integration is common to both
  // paths and O(N) by construction.
  double incr_acc = 0.0, full_acc = 0.0;
  const auto epoch = [&] {
    field_i.advance(mc.epoch_s);
    const scenario::MobilityField::Displacements d = field_i.displacements();
    auto t0 = bench::Clock::now();
    incr.apply_displacements(d.ids, d.positions);
    incr_acc += seconds_since(t0);

    field_f.advance(mc.epoch_s);
    t0 = bench::Clock::now();
    full.update_positions(field_f.positions());
    full_acc += seconds_since(t0);
  };
  for (std::size_t e = 0; e < kWarmupEpochs; ++e) epoch();

  double incr_best = 1e30, full_best = 1e30;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    incr_acc = full_acc = 0.0;
    for (std::size_t e = 0; e < kEpochsPerRep; ++e) epoch();
    incr_best =
        std::min(incr_best, incr_acc / static_cast<double>(kEpochsPerRep));
    full_best =
        std::min(full_best, full_acc / static_cast<double>(kEpochsPerRep));
  }
  pt.incr_epoch_s = incr_best;
  pt.full_epoch_s = full_best;
  pt.mean_degree = full.mean_degree();
  const net::Topology::MaintenanceStats& ms = incr.maintenance_stats();
  pt.movers_per_epoch =
      ms.incremental_epochs > 0
          ? static_cast<double>(ms.movers_rescanned) /
                static_cast<double>(ms.incremental_epochs)
          : 0.0;

  // Element identity after every timed epoch ran: both paths walked the
  // same displacement stream, so the topologies must agree exactly.
  pt.identical = incr.size() == full.size();
  for (net::NodeId id = 0; pt.identical && id < incr.size(); ++id) {
    if (!(incr.position(id) == full.position(id))) pt.identical = false;
    const auto a = incr.neighbors(id);
    const auto b = full.neighbors(id);
    if (a.size() != b.size() ||
        !std::equal(a.begin(), a.end(), b.begin())) {
      pt.identical = false;
    }
  }
  return pt;
}

obs::JsonValue sweep_json(const SweepPoint& pt) {
  obs::JsonValue entry;
  entry.set("nodes", static_cast<std::uint64_t>(pt.nodes));
  entry.set("side_m", pt.side_m);
  entry.set("range_m", pt.range_m);
  entry.set("mobile_fraction", pt.mobile_fraction);
  entry.set("mean_degree", pt.mean_degree);
  entry.set("incr_epoch_s", pt.incr_epoch_s);
  entry.set("full_epoch_s", pt.full_epoch_s);
  entry.set("incr_ns_per_node",
            pt.incr_epoch_s / static_cast<double>(pt.nodes) * 1e9);
  entry.set("full_ns_per_node",
            pt.full_epoch_s / static_cast<double>(pt.nodes) * 1e9);
  entry.set("movers_per_epoch", pt.movers_per_epoch);
  entry.set("speedup", pt.speedup());
  entry.set("identical", pt.identical);
  if (pt.engine_wall_s > 0.0) entry.set("engine_wall_s", pt.engine_wall_s);
  return entry;
}

}  // namespace

int main() {
  const std::size_t nodes =
      bench::env_count("LDKE_BENCH_SCENARIO_NODES", 1000);
  const std::size_t reps = bench::env_count("LDKE_BENCH_SCENARIO_REPS", 3);
  const std::vector<std::size_t> scale_sizes =
      bench::env_list("LDKE_BENCH_SCENARIO_SCALE", {10000, 50000, 100000});
  const bool scale_engine =
      bench::env_count("LDKE_BENCH_SCENARIO_SCALE_ENGINE", 1, 0) != 0;
  const double mobile_fraction =
      bench::env_number("LDKE_BENCH_SCENARIO_MOBILE_FRACTION", 0.1);
  std::cout << "Scenario bench: " << nodes << " nodes, seed " << kSeed
            << ", best of " << reps << " reps\n\n";

  const scenario::ScenarioSpec specs[] = {
      mobility_spec(nodes), churn_duty_spec(nodes), partition_spec(nodes)};

  obs::JsonValue scenarios;
  support::TextTable table({"scenario", "wall s", "phase", "ratio", "p50 ms",
                            "ldke", "global", "predist"});
  bool all_deterministic = true;
  bool all_digests_match = true;

  for (const scenario::ScenarioSpec& spec : specs) {
    // Warmup run doubles as the reference for the determinism gate:
    // every timed reap must reproduce its JSON bit for bit.
    const scenario::ScenarioStats stats = run_engine(spec);
    double best_wall = 1e30;
    bool deterministic = true;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      const auto t0 = bench::Clock::now();
      const scenario::ScenarioStats timed = run_engine(spec);
      best_wall = std::min(best_wall, seconds_since(t0));
      deterministic =
          deterministic && timed.to_json().dump() == stats.to_json().dump();
    }
    all_deterministic = all_deterministic && deterministic;

    // Replay gate: every graph replay reproduces the engine's digest.
    core::ProtocolRunner deployed{
        scenario::ScenarioEngine::make_runner_config(spec, kSeed)};
    deployed.run_key_setup();
    baselines::LdkeAdapter ldke{deployed};
    baselines::GlobalKeyScheme global_key;
    baselines::RandomPredistScheme random_predist;
    const std::pair<const char*, baselines::KeyScheme&> schemes[] = {
        {"ldke", ldke},
        {"global_key", global_key},
        {"random_predist", random_predist}};
    obs::JsonValue replays;
    std::vector<scenario::GraphReplayResult> results;
    for (const auto& [name, scheme] : schemes) {
      results.push_back(scenario::replay_scheme(spec, kSeed, scheme));
      all_digests_match = all_digests_match &&
                          results.back().trace_digest == stats.trace_digest;
      replays.push(results.back().to_json());
    }

    for (std::size_t pi = 0; pi < stats.phases.size(); ++pi) {
      const scenario::PhaseStats& ps = stats.phases[pi];
      table.add_row({spec.name,
                     pi == 0 ? support::fmt(best_wall, 2) : "",
                     ps.name, support::fmt(ps.delivery_ratio()),
                     support::fmt(ps.latency_p50_ms, 1),
                     support::fmt(results[0].phases[pi].secured_link_fraction),
                     support::fmt(results[1].phases[pi].secured_link_fraction),
                     support::fmt(
                         results[2].phases[pi].secured_link_fraction)});
    }

    obs::JsonValue entry;
    entry.set("wall_s", best_wall);
    entry.set("reps", static_cast<std::uint64_t>(reps));
    entry.set("deterministic", deterministic);
    entry.set("engine", stats.to_json());
    entry.set("replays", std::move(replays));
    scenarios.push(std::move(entry));
  }

  table.print(std::cout);
  std::cout << "\ndeterministic reruns: "
            << (all_deterministic ? "yes" : "NO")
            << "\nreplay digests match the engine: "
            << (all_digests_match ? "yes" : "NO") << "\n";

  // Section 2: the mobile-scale sweep.
  bool sweep_identical = true;
  bool sweep_fast_enough = true;
  const bool speedup_gated = mobile_fraction <= kGateMobileFraction;
  obs::JsonValue sweep;
  if (!scale_sizes.empty()) {
    std::cout << "\nMobile-scale sweep (waypoint epochs, "
              << support::fmt(mobile_fraction * 100.0, 0)
              << "% mobile minority, best of " << reps
              << " reps of 5 epochs):\n\n";
    support::TextTable sweep_table({"nodes", "movers/epoch", "incr ms",
                                    "full ms", "speedup", "identical",
                                    "engine s"});
    for (const std::size_t n : scale_sizes) {
      SweepPoint pt = sweep_topology(n, reps, mobile_fraction);
      if (scale_engine) {
        const auto t0 = bench::Clock::now();
        run_engine(mobile_churn_spec(n));
        pt.engine_wall_s = seconds_since(t0);
      }
      sweep_identical = sweep_identical && pt.identical;
      if (speedup_gated && n >= kGateNodes && pt.speedup() < kMinSpeedup) {
        sweep_fast_enough = false;
      }
      sweep_table.add_row(
          {std::to_string(n), support::fmt(pt.movers_per_epoch, 0),
           support::fmt(pt.incr_epoch_s * 1e3, 3),
           support::fmt(pt.full_epoch_s * 1e3, 3),
           support::fmt(pt.speedup(), 1) + "x", pt.identical ? "yes" : "NO",
           pt.engine_wall_s > 0.0 ? support::fmt(pt.engine_wall_s, 2) : "-"});
      sweep.push(sweep_json(pt));
    }
    sweep_table.print(std::cout);
    std::cout << "\nsweep topologies element-identical: "
              << (sweep_identical ? "yes" : "NO") << "\nsweep speedup >= "
              << support::fmt(kMinSpeedup, 1) << "x at >= " << kGateNodes
              << " nodes: "
              << (!speedup_gated       ? "not gated above 10% movers"
                  : sweep_fast_enough ? "yes"
                                      : "NO")
              << "\n";
  }

  obs::JsonValue doc = bench::artifact("scenarios", 3);
  doc.set("nodes", static_cast<std::uint64_t>(nodes));
  doc.set("reps", static_cast<std::uint64_t>(reps));
  doc.set("deterministic", all_deterministic);
  doc.set("digests_match", all_digests_match);
  doc.set("scenarios", std::move(scenarios));
  if (!scale_sizes.empty()) {
    doc.set("sweep_identical", sweep_identical);
    if (speedup_gated) {
      doc.set("sweep_min_speedup", kMinSpeedup);
      doc.set("sweep_gate_nodes", static_cast<std::uint64_t>(kGateNodes));
    }
    doc.set("sweep_mobile_fraction", mobile_fraction);
    doc.set("scale_sweep", std::move(sweep));
  }

  if (!bench::write_artifact(doc)) return 1;
  return (all_deterministic && all_digests_match && sweep_identical &&
          sweep_fast_enough)
             ? 0
             : 1;
}
