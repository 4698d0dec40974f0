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
///     sweep field is a mobile minority over static sensors
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
///   - sweep speedup: at >= LDKE_BENCH_SCENARIO_GATE_NODES (default
///     50000) nodes the per-epoch speedup must clear
///     LDKE_BENCH_SCENARIO_MIN_SPEEDUP (default 5).
///
/// Results land in results/BENCH_scenarios.json.  Env knobs:
/// LDKE_BENCH_SCENARIO_NODES (default 1000), LDKE_BENCH_SCENARIO_REPS
/// (default 3), LDKE_BENCH_SCENARIO_SCALE (comma-separated sizes,
/// default "10000,50000,100000", "" disables the sweep),
/// LDKE_BENCH_SCENARIO_SCALE_ENGINE (default 1; 0 skips the per-size
/// engine runs), LDKE_BENCH_SCENARIO_OUT (output path, "" disables).

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baselines/global_key.hpp"
#include "baselines/ldke_adapter.hpp"
#include "baselines/random_predist.hpp"
#include "core/runner.hpp"
#include "net/topology.hpp"
#include "obs/json.hpp"
#include "scenario/baseline_replay.hpp"
#include "scenario/engine.hpp"
#include "scenario/mobility.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

namespace {

using namespace ldke;

constexpr std::uint64_t kSeed = 0x5eed;

std::size_t env_size(const char* name, std::size_t fallback) {
  if (const char* env = std::getenv(name)) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return fallback;
}

bool env_flag(const char* name, bool fallback) {
  if (const char* env = std::getenv(name)) {
    return std::strtol(env, nullptr, 10) != 0;
  }
  return fallback;
}

double env_double(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    const double v = std::strtod(env, nullptr);
    if (v > 0.0) return v;
  }
  return fallback;
}

std::vector<std::size_t> env_scale_sizes() {
  const char* env = std::getenv("LDKE_BENCH_SCENARIO_SCALE");
  const std::string raw = env != nullptr ? env : "10000,50000,100000";
  std::vector<std::size_t> sizes;
  std::stringstream ss(raw);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    const long v = std::strtol(tok.c_str(), nullptr, 10);
    if (v > 1) sizes.push_back(static_cast<std::size_t>(v));
  }
  return sizes;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

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

scenario::ScenarioSpec mobility_spec(std::size_t nodes) {
  scenario::ScenarioSpec spec = base_spec(nodes, "mobility");
  spec.motion = sweep_motion();
  scenario::PhaseSpec still{.name = "still", .duration_s = 1.0};
  scenario::PhaseSpec moving{.name = "moving", .duration_s = 2.0};
  moving.mobility = true;
  scenario::PhaseSpec settled{.name = "settled", .duration_s = 1.0};
  spec.phases = {still, moving, settled};
  return spec;
}

scenario::ScenarioSpec churn_duty_spec(std::size_t nodes) {
  scenario::ScenarioSpec spec = base_spec(nodes, "churn_duty");
  spec.churn = {3.0, 2.0, 3.0};
  spec.duty = {1.0, 0.7};
  scenario::PhaseSpec baseline{.name = "baseline", .duration_s = 1.0};
  scenario::PhaseSpec stress{.name = "stress", .duration_s = 2.0};
  stress.churn = true;
  stress.duty = true;
  stress.recluster_after = true;
  scenario::PhaseSpec recovered{.name = "recovered", .duration_s = 1.0};
  spec.phases = {baseline, stress, recovered};
  return spec;
}

scenario::ScenarioSpec partition_spec(std::size_t nodes) {
  scenario::ScenarioSpec spec = base_spec(nodes, "partition");
  scenario::PhaseSpec baseline{.name = "baseline", .duration_s = 1.0};
  scenario::PhaseSpec walled{.name = "walled", .duration_s = 2.0};
  walled.events.push_back(
      {scenario::ScriptedEvent::Kind::kPartition, 0.25, spec.side_m / 2});
  walled.events.push_back({scenario::ScriptedEvent::Kind::kHeal, 1.5, 0.0});
  scenario::PhaseSpec healed{.name = "healed", .duration_s = 1.0};
  spec.phases = {baseline, walled, healed};
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
  scenario::PhaseSpec storm{.name = "storm", .duration_s = 1.0};
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
/// the topology-maintenance call is inside the clock.  Nodes outside
/// the mobile minority are frozen where they were deployed, which the
/// two fields do identically so their RNG streams stay in lockstep.
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

  support::Xoshiro256 rng{kSeed};
  std::vector<net::Vec2> positions;
  positions.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    positions.push_back(
        {rng.uniform(0.0, pt.side_m), rng.uniform(0.0, pt.side_m)});
  }
  net::Topology incr = net::Topology::from_positions(positions, pt.range_m);
  net::Topology full = net::Topology::from_positions(positions, pt.range_m);
  const scenario::MotionConfig mc = sweep_motion();
  scenario::MobilityField field_i{mc, incr.side(), incr.positions(), kSeed};
  scenario::MobilityField field_f{mc, full.side(), full.positions(), kSeed};
  const auto stride = static_cast<net::NodeId>(
      mobile_fraction > 0.0 && mobile_fraction < 1.0
          ? std::llround(1.0 / mobile_fraction)
          : 1);
  for (net::NodeId id = 0; id < nodes; ++id) {
    if (stride > 1 && id % stride != 1) {
      field_i.freeze(id);
      field_f.freeze(id);
    }
  }

  const auto incr_epoch = [&] {
    field_i.advance(mc.epoch_s);
    const scenario::MobilityField::Displacements d = field_i.displacements();
    incr.apply_displacements(d.ids, d.positions);
  };
  const auto full_epoch = [&] {
    field_f.advance(mc.epoch_s);
    full.update_positions(field_f.positions());
  };
  for (std::size_t e = 0; e < kWarmupEpochs; ++e) {
    incr_epoch();
    full_epoch();
  }

  // Only the topology-maintenance call sits inside the clock; walker
  // integration is common to both paths and O(N) by construction.
  double incr_best = 1e30, full_best = 1e30;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    double incr_acc = 0.0, full_acc = 0.0;
    for (std::size_t e = 0; e < kEpochsPerRep; ++e) {
      field_i.advance(mc.epoch_s);
      const scenario::MobilityField::Displacements d = field_i.displacements();
      auto t0 = std::chrono::steady_clock::now();
      incr.apply_displacements(d.ids, d.positions);
      incr_acc += seconds_since(t0);

      field_f.advance(mc.epoch_s);
      t0 = std::chrono::steady_clock::now();
      full.update_positions(field_f.positions());
      full_acc += seconds_since(t0);
    }
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
  const std::size_t nodes = env_size("LDKE_BENCH_SCENARIO_NODES", 1000);
  const std::size_t reps = env_size("LDKE_BENCH_SCENARIO_REPS", 3);
  const std::vector<std::size_t> scale_sizes = env_scale_sizes();
  const bool scale_engine = env_flag("LDKE_BENCH_SCENARIO_SCALE_ENGINE", true);
  const double min_speedup =
      env_double("LDKE_BENCH_SCENARIO_MIN_SPEEDUP", 5.0);
  const double mobile_fraction =
      env_double("LDKE_BENCH_SCENARIO_MOBILE_FRACTION", 0.1);
  const auto gate_nodes = static_cast<std::size_t>(
      env_double("LDKE_BENCH_SCENARIO_GATE_NODES", 50000.0));
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
      const auto t0 = std::chrono::steady_clock::now();
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
        const auto t0 = std::chrono::steady_clock::now();
        run_engine(mobile_churn_spec(n));
        pt.engine_wall_s = seconds_since(t0);
      }
      sweep_identical = sweep_identical && pt.identical;
      if (n >= gate_nodes && pt.speedup() < min_speedup) {
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
              << (sweep_identical ? "yes" : "NO")
              << "\nsweep speedup >= " << support::fmt(min_speedup, 1)
              << "x at >= " << gate_nodes
              << " nodes: " << (sweep_fast_enough ? "yes" : "NO") << "\n";
  }

  obs::JsonValue doc;
  doc.set("schema_version", 2);
  doc.set("bench", "scenarios");
  doc.set("nodes", static_cast<std::uint64_t>(nodes));
  doc.set("seed", kSeed);
  doc.set("reps", static_cast<std::uint64_t>(reps));
  doc.set("deterministic", all_deterministic);
  doc.set("digests_match", all_digests_match);
  doc.set("scenarios", std::move(scenarios));
  if (!scale_sizes.empty()) {
    doc.set("sweep_identical", sweep_identical);
    doc.set("sweep_min_speedup", min_speedup);
    doc.set("sweep_gate_nodes", static_cast<std::uint64_t>(gate_nodes));
    doc.set("sweep_mobile_fraction", mobile_fraction);
    doc.set("scale_sweep", std::move(sweep));
  }

  const char* out_env = std::getenv("LDKE_BENCH_SCENARIO_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "results/BENCH_scenarios.json";
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    os << doc.dump() << "\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return (all_deterministic && all_digests_match && sweep_identical &&
          sweep_fast_enough)
             ? 0
             : 1;
}
