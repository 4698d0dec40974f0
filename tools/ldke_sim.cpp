/// \file ldke_sim.cpp
/// Command-line front end to the library: run deployments, sweeps and
/// attacks without writing C++.
///
///   ldke_sim setup  [-n nodes] [-d density] [-s seed] [--collisions]
///                   [--loss p] [--csv] [--summary f.json] [--trace f.jsonl]
///   ldke_sim sweep  [-n nodes] [-t trials] [--csv] [--summary f.json]
///   ldke_sim attack (clone|flood|wormhole) [-n nodes] [-d density] [-s seed]
///   ldke_sim lifecycle [-n nodes] [-d density] [-s seed]
///                      [--summary f.json] [--trace f.jsonl]
///   ldke_sim steady [-n nodes] [-d density] [-s seed] [--duration s]
///                   [--summary f.json] [--trace f.jsonl]
///   ldke_sim scenario <spec.json> [-s seed] [--baselines]
///                     [--summary f.json] [--trace f.jsonl]

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "analysis/experiment.hpp"
#include "analysis/paper_data.hpp"
#include "analysis/run_artifacts.hpp"
#include "attacks/adversary.hpp"
#include "attacks/clone.hpp"
#include "attacks/hello_flood.hpp"
#include "attacks/wormhole.hpp"
#include "baselines/global_key.hpp"
#include "baselines/ldke_adapter.hpp"
#include "baselines/random_predist.hpp"
#include "core/dataplane.hpp"
#include "core/health_probe.hpp"
#include "core/metrics.hpp"
#include "core/runner.hpp"
#include "net/packet_trace.hpp"
#include "obs/audit.hpp"
#include "scenario/baseline_replay.hpp"
#include "scenario/engine.hpp"
#include "support/table.hpp"
#include "support/thread_pool.hpp"

namespace {

using namespace ldke;

struct CliOptions {
  std::size_t nodes = 1000;
  double density = 12.0;
  std::uint64_t seed = 1;
  std::size_t trials = 5;
  double loss = 0.0;
  std::size_t lanes = 1;
  bool collisions = false;
  bool csv = false;
  double duration = 5.0;     ///< steady-state window (seconds)
  bool baselines = false;    ///< scenario: add the graph-level replays
  std::string summary_path;  ///< RunSummary JSON destination ("" = off)
  std::string trace_path;    ///< JSONL trace destination ("" = off)
};

int usage() {
  std::cerr <<
      "usage: ldke_sim <command> [options]\n"
      "commands:\n"
      "  setup       run one key-setup and print the cluster statistics\n"
      "  sweep       density sweep (the paper's Figures 6-9 quantities)\n"
      "  attack      clone | flood | wormhole demonstration\n"
      "  lifecycle   setup -> data -> recluster -> evict -> re-key -> add\n"
      "  steady      setup + routing, then the steady-state data plane\n"
      "  scenario    replay a ScenarioSpec JSON file (docs/scenarios.md)\n"
      "options:\n"
      "  -n <nodes>  deployment size          (default 1000)\n"
      "  -d <dens>   mean neighbors per node  (default 12)\n"
      "  -s <seed>   trial seed               (default 1)\n"
      "  -t <k>      trials per sweep point   (default 5)\n"
      "  --loss <p>  per-receiver loss probability\n"
      "  --lanes <k> sharded-kernel lanes (1 = serial event loop)\n"
      "  --collisions  model overlapping-reception corruption\n"
      "  --duration <s>  steady-state window length  (default 5)\n"
      "  --baselines scenario: graph-replay the baseline key schemes on "
      "the same trace\n"
      "  --csv       machine-readable output\n"
      "  --summary <file>  write the RunSummary JSON artifact\n"
      "  --trace <file>    write the versioned JSONL trace "
      "(read with ldke_trace)\n";
  return 2;
}

/// Reads all of \p text as a T in [lo, hi]: false on an empty string,
/// trailing characters, a non-finite number or a value out of range.
template <typename T>
bool parse_value(std::string_view text, T lo, T hi, T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end) return false;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return false;
  }
  if (v < lo || v > hi) return false;
  out = v;
  return true;
}

/// 0 when every option parsed; otherwise the exit status, with the
/// reason printed.
int parse_options(int argc, char** argv, int first, CliOptions& opt,
                  std::string* attack_kind = nullptr) {
  constexpr double kPositive = std::numeric_limits<double>::denorm_min();
  constexpr double kMaxDouble = std::numeric_limits<double>::max();
  constexpr auto kMaxCount = std::numeric_limits<std::size_t>::max();
  for (int i = first; i < argc; ++i) {
    const std::string_view arg = argv[i];
    bool bad_value = false;
    // Takes the flag's value whole and in range, or reports it in one line.
    auto next_value = [&](auto& out, auto lo, auto hi, const char* want) {
      if (i + 1 < argc && parse_value(argv[i + 1], lo, hi, out)) {
        ++i;
        return;
      }
      std::cerr << "ldke: " << arg << " expects " << want << ", got ";
      if (i + 1 < argc) {
        std::cerr << '\'' << argv[i + 1] << "'\n";
      } else {
        std::cerr << "nothing\n";
      }
      bad_value = true;
    };
    auto next_string = [&](std::string& out) {
      if (i + 1 >= argc) return false;
      out = argv[++i];
      return true;
    };
    if (arg == "-n") {
      next_value(opt.nodes, std::size_t{1},
                 std::size_t{std::numeric_limits<net::NodeId>::max()},
                 "a node count from 1 to 4294967295");
    } else if (arg == "-d") {
      next_value(opt.density, kPositive, kMaxDouble, "a density > 0");
    } else if (arg == "-s") {
      next_value(opt.seed, std::uint64_t{0},
                 std::numeric_limits<std::uint64_t>::max(),
                 "an integer seed >= 0");
    } else if (arg == "-t") {
      next_value(opt.trials, std::size_t{1}, kMaxCount,
                 "a trial count >= 1");
    } else if (arg == "--loss") {
      next_value(opt.loss, 0.0, 1.0, "a probability in [0, 1]");
    } else if (arg == "--lanes") {
      next_value(opt.lanes, std::size_t{1}, std::size_t{255},
                 "a lane count from 1 to 255");
    } else if (arg == "--duration") {
      next_value(opt.duration, kPositive, kMaxDouble, "a duration > 0");
    } else if (arg == "--baselines") {
      opt.baselines = true;
    } else if (arg == "--collisions") {
      opt.collisions = true;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--summary" && next_string(opt.summary_path)) {
      // handled
    } else if (arg == "--trace" && next_string(opt.trace_path)) {
      // handled
    } else if (attack_kind != nullptr && attack_kind->empty() &&
               !arg.starts_with('-')) {
      *attack_kind = arg;
    } else {
      std::cerr << "unknown option: " << arg << '\n';
      return usage();
    }
    if (bad_value) return 2;
  }
  return 0;
}

/// The --trace record logs: the packet trace and the audit stream, hung
/// on the runner's network only when a trace file was asked for.
struct Recorders {
  net::PacketTrace packets{1 << 20};
  obs::AuditSink audit;

  Recorders(core::ProtocolRunner& runner, const CliOptions& opt) {
    if (opt.trace_path.empty()) return;
    runner.network().set_packet_trace(&packets);
    runner.network().set_audit_sink(&audit);
  }
  // The network holds the logs' addresses.
  Recorders(const Recorders&) = delete;
  Recorders& operator=(const Recorders&) = delete;
};

/// Writes the requested artifacts after a run; non-fatal on I/O errors
/// (the run's terminal output already happened).  The summary is the
/// RunSummary with \p extra's members appended.  The trace carries the
/// packet log, the security-audit event stream, and \p trace's health
/// samples and meta extras; with no health sample given, one end-of-run
/// sample covers the whole delivery window.
int emit_artifacts(core::ProtocolRunner& runner, const CliOptions& opt,
                   const Recorders& recorders, std::string_view tool,
                   const obs::JsonValue& extra = {},
                   analysis::TraceArtifacts trace = {}) {
  if (!opt.summary_path.empty()) {
    std::ofstream out{opt.summary_path};
    if (!out) {
      std::cerr << "cannot write " << opt.summary_path << '\n';
      return 1;
    }
    obs::JsonValue doc =
        analysis::to_json(analysis::collect_run_summary(runner, tool));
    if (extra.is_object()) {
      for (const auto& [key, value] : extra.as_object()) doc.set(key, value);
    }
    out << doc.dump() << '\n';
  }
  if (!opt.trace_path.empty()) {
    std::ofstream out{opt.trace_path};
    if (!out) {
      std::cerr << "cannot write " << opt.trace_path << '\n';
      return 1;
    }
    trace.packets = &recorders.packets;
    trace.audit = &recorders.audit;
    if (trace.health.empty()) {
      const std::int64_t now_ns = runner.sim().now().ns();
      trace.health.push_back(
          core::probe_health(runner, "run", now_ns, 0, now_ns));
    }
    analysis::write_trace_jsonl(out, runner, tool, trace);
  }
  return 0;
}

core::RunnerConfig config_of(const CliOptions& opt) {
  core::RunnerConfig cfg;
  cfg.node_count = opt.nodes;
  cfg.density = opt.density;
  cfg.side_m = 1000.0;
  cfg.seed = opt.seed;
  cfg.channel.loss_probability = opt.loss;
  cfg.channel.model_collisions = opt.collisions;
  cfg.kernel.lanes = opt.lanes;
  return cfg;
}

int cmd_setup(const CliOptions& opt) {
  core::ProtocolRunner runner{config_of(opt)};
  const Recorders recorders{runner, opt};
  runner.run_key_setup();
  const auto m = core::collect_setup_metrics(runner);
  support::TextTable table({"metric", "value"});
  table.add_row({"nodes", std::to_string(m.node_count)});
  table.add_row({"realized density", support::fmt(m.realized_density, 2)});
  table.add_row({"clusters", std::to_string(m.cluster_count)});
  table.add_row({"head fraction", support::fmt(m.head_fraction)});
  table.add_row({"mean cluster size", support::fmt(m.mean_cluster_size)});
  table.add_row({"mean keys per node", support::fmt(m.mean_keys_per_node)});
  table.add_row({"setup messages/node",
                 support::fmt(m.setup_messages_per_node)});
  table.add_row({"singleton clusters", std::to_string(m.singleton_clusters)});
  table.add_row(
      {"channel transmissions",
       std::to_string(runner.network().channel().transmissions())});
  table.add_row({"energy (mJ)",
                 support::fmt(runner.network().energy().total_j() * 1e3, 2)});
  std::cout << (opt.csv ? table.to_csv() : table.render());
  return emit_artifacts(runner, opt, recorders, "ldke_sim setup");
}

int cmd_sweep(const CliOptions& opt) {
  support::ThreadPool pool;
  core::RunnerConfig base = config_of(opt);
  support::TextTable table({"density", "keys/node", "cluster size",
                            "head fraction", "msgs/node"});
  // With --summary, each sweep point's first-trial RunSummary is written
  // as one JSON line (a JSONL file over the density axis).
  std::ofstream summary_out;
  if (!opt.summary_path.empty()) {
    summary_out.open(opt.summary_path);
    if (!summary_out) {
      std::cerr << "cannot write " << opt.summary_path << '\n';
      return 1;
    }
  }
  for (double density : analysis::kPaperDensities) {
    analysis::RunSummary exemplar;
    const auto agg = analysis::run_setup_point(
        base, density, opt.nodes, opt.trials, &pool,
        summary_out.is_open() ? &exemplar : nullptr);
    if (summary_out.is_open()) {
      analysis::write_run_summary(summary_out, exemplar);
    }
    table.add_row({support::fmt(density, 1), agg.keys_per_node.summary(),
                   agg.cluster_size.summary(), agg.head_fraction.summary(),
                   agg.messages_per_node.summary()});
  }
  std::cout << (opt.csv ? table.to_csv() : table.render());
  return 0;
}

int cmd_attack(const CliOptions& opt, const std::string& kind) {
  if (kind == "clone") {
    core::ProtocolRunner runner{config_of(opt)};
    runner.run_key_setup();
    attacks::Adversary adversary{runner};
    const net::NodeId victim =
        static_cast<net::NodeId>(runner.node_count() / 2);
    const auto& material = adversary.capture(victim);
    const auto vpos = runner.network().topology().position(victim);
    const double r = runner.network().topology().range();
    const auto near = attacks::run_clone_attack(runner, material, vpos, r);
    const auto far = attacks::run_clone_attack(
        runner, material,
        {vpos.x < 500 ? 950.0 : 50.0, vpos.y < 500 ? 950.0 : 50.0}, r);
    std::cout << "clone of node " << victim << ": near origin "
              << near.accepted << "/" << near.receivers << " accepted, far "
              << far.accepted << "/" << far.receivers << " accepted\n";
    return far.accepted == 0 ? 0 : 1;
  }
  if (kind == "flood") {
    core::ProtocolRunner runner{config_of(opt)};
    const auto result = attacks::run_hello_flood(runner, {500, 500}, 1000.0,
                                                 50, false);
    std::cout << "hello flood: " << result.auth_failures
              << " forgeries rejected, " << result.victims_joined
              << " nodes captured\n";
    return result.victims_joined == 0 ? 0 : 1;
  }
  if (kind == "wormhole") {
    core::ProtocolRunner runner{config_of(opt)};
    runner.run_key_setup();
    runner.run_routing_setup();
    const double r = runner.network().topology().range();
    const auto result = attacks::run_wormhole_attack(runner, {100, 100},
                                                     {900, 900}, 2 * r);
    std::cout << "wormhole: " << result.tunneled << " beacons tunneled, "
              << result.rejected_no_key << " rejected (no key), "
              << result.corrupted_routes << " routes corrupted\n";
    return result.corrupted_routes == 0 ? 0 : 1;
  }
  std::cerr << "unknown attack: " << kind << " (clone|flood|wormhole)\n";
  return 2;
}

int cmd_lifecycle(const CliOptions& opt) {
  if (opt.lanes > 1) {
    std::cerr << "lifecycle requires the serial event loop (--lanes 1): its "
                 "refresh round runs in the data-plane engine\n";
    return 2;
  }
  core::ProtocolRunner runner{config_of(opt)};
  const Recorders recorders{runner, opt};
  std::cout << "[1/6] key setup... " << std::flush;
  runner.run_key_setup();
  const auto m = core::collect_setup_metrics(runner);
  std::cout << m.cluster_count << " clusters\n[2/6] routing... "
            << std::flush;
  runner.run_routing_setup();
  std::cout << "done\n[3/6] reporting... " << std::flush;
  std::size_t sent = 0;
  for (net::NodeId id = 1; id < runner.node_count(); id += 19) {
    if (runner.node(id).send_reading(runner.network(),
                                     support::bytes_of("r"))) {
      ++sent;
    }
  }
  runner.run_for(10.0);
  std::cout << runner.base_station()->readings().size() << "/" << sent
            << " delivered\n[4/6] re-clustering refresh... " << std::flush;
  runner.run_recluster_round();
  std::cout << "done\n[5/6] capture + revoke... " << std::flush;
  attacks::Adversary adversary{runner};
  const auto& material =
      adversary.capture(static_cast<net::NodeId>(runner.node_count() / 3));
  std::vector<core::ClusterId> exposed;
  for (const auto& [cid, key] : material.cluster_keys) exposed.push_back(cid);
  runner.base_station()->revoke_clusters(runner.network(), exposed);
  // Survivors re-key after the revocation (§IV-C, Kc <- F(Kc)) in the
  // data-plane engine's refresh round: a 15 s window that originates
  // nothing and refreshes once, 10 s in.
  core::DataPlaneConfig rekey;
  rekey.duration_s = 15.0;
  rekey.tick_interval_s = rekey.duration_s;
  rekey.readings_per_tick = 0;
  rekey.refresh_interval_s = 10.0;
  core::DataPlaneEngine{runner, rekey}.run();
  std::cout << exposed.size() << " clusters revoked\n[6/6] node addition "
            << "(KMC joins need pre-refresh keys; deploying anyway)... "
            << std::flush;
  auto& joiner = runner.deploy_new_node({500.0, 500.0});
  runner.run_for(2.0);
  std::cout << (joiner.role() == core::Role::kMember
                    ? "joined\n"
                    : "rejected (keys re-randomized by the refresh — "
                      "provision newcomers with current material)\n");
  return emit_artifacts(runner, opt, recorders, "ldke_sim lifecycle");
}

/// Setup + routing, then the DataPlaneEngine's steady-state window:
/// continuous DATA origination with periodic hash refresh.
int cmd_steady(const CliOptions& opt) {
  if (opt.lanes > 1) {
    std::cerr << "steady requires the serial event loop (--lanes 1)\n";
    return 2;
  }
  core::ProtocolRunner runner{config_of(opt)};
  const Recorders recorders{runner, opt};
  std::cout << "setup + routing... " << std::flush;
  runner.run_key_setup();
  runner.run_routing_setup();
  std::cout << "done\ndata plane, " << support::fmt(opt.duration, 1)
            << " s steady state... " << std::flush;
  core::DataPlaneConfig dp;
  dp.duration_s = opt.duration;
  dp.refresh_interval_s = 1.0;  // control plane stays live under traffic
  core::DataPlaneEngine engine{runner, dp};
  const core::DataPlaneStats stats = engine.run();
  std::cout << "done\n";

  const obs::DeliveryTracker& dt = runner.deliveries();
  support::TextTable table({"metric", "value"});
  table.add_row({"originated", std::to_string(stats.originated)});
  table.add_row({"delivered", std::to_string(dt.delivered())});
  table.add_row({"pkts/s (sim)",
                 support::fmt(static_cast<double>(stats.originated) /
                                  stats.sim_elapsed_s, 1)});
  table.add_row({"latency p50 (ms)",
                 support::fmt(dt.latency_percentile_s(0.50) * 1e3, 3)});
  table.add_row({"latency p95 (ms)",
                 support::fmt(dt.latency_percentile_s(0.95) * 1e3, 3)});
  table.add_row({"latency p99 (ms)",
                 support::fmt(dt.latency_percentile_s(0.99) * 1e3, 3)});
  table.add_row({"refresh rounds", std::to_string(stats.refresh_rounds)});
  std::cout << (opt.csv ? table.to_csv() : table.render());
  return emit_artifacts(runner, opt, recorders, "ldke_sim steady");
}

/// Runs a ScenarioSpec JSON file through the packet-level engine and
/// prints the per-phase degradation/recovery table.  With --baselines
/// the same trace is graph-replayed under LDKE and the baseline key
/// schemes; a digest mismatch is a hard error (the replayers must walk
/// the identical deployment history).
int cmd_scenario(const CliOptions& opt, const std::string& path) {
  if (opt.lanes > 1) {
    std::cerr << "scenario requires the serial event loop (--lanes 1)\n";
    return 2;
  }
  std::ifstream in{path};
  if (!in) {
    std::cerr << "cannot read " << path << '\n';
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto spec = scenario::ScenarioSpec::parse(buffer.str());
  if (!spec.has_value()) {
    std::cerr << path << ": not a valid ScenarioSpec "
              << "(schema in docs/scenarios.md)\n";
    return 1;
  }
  if (const std::string problem = spec->validate(); !problem.empty()) {
    std::cerr << path << ": invalid spec: " << problem << '\n';
    return 1;
  }

  char digest_hex[17];
  core::ProtocolRunner runner{
      scenario::ScenarioEngine::make_runner_config(*spec, opt.seed)};
  scenario::ScenarioEngine engine{runner, *spec};
  const Recorders recorders{runner, opt};
  std::cout << "scenario '" << spec->name << "': " << spec->nodes
            << " nodes, " << spec->phases.size() << " phases, "
            << support::fmt(spec->total_duration_s(), 1)
            << " s... " << std::flush;
  const scenario::ScenarioStats stats = engine.run();
  std::cout << "done\n";

  support::TextTable table({"phase", "delivered", "ratio", "p50 ms",
                            "join", "leave+fail", "sleeps", "heads",
                            "degree"});
  for (const scenario::PhaseStats& ps : stats.phases) {
    table.add_row({ps.name,
                   std::to_string(ps.delivered) + "/" +
                       std::to_string(ps.originated),
                   support::fmt(ps.delivery_ratio()),
                   support::fmt(ps.latency_p50_ms, 2),
                   std::to_string(ps.join_successes) + "/" +
                       std::to_string(ps.joins),
                   std::to_string(ps.leaves + ps.fails),
                   std::to_string(ps.sleeps),
                   std::to_string(ps.heads_end),
                   support::fmt(ps.mean_degree_end, 1)});
  }
  std::cout << (opt.csv ? table.to_csv() : table.render());
  std::snprintf(digest_hex, sizeof digest_hex, "%016llx",
                static_cast<unsigned long long>(stats.trace_digest));
  std::cout << "trace digest: " << digest_hex << '\n';

  // The summary is a full RunSummary (same sections validate_obs.py
  // checks for every other command) with the scenario stats nested under
  // "scenario" — the digest and per-phase delivery windows ride there.
  obs::JsonValue extra;
  extra.set("scenario", stats.to_json());
  if (opt.baselines) {
    // The adapter snapshots LDKE as freshly deployed (same seed, same
    // placement), the footing the predistribution baselines get.
    core::ProtocolRunner deployed{
        scenario::ScenarioEngine::make_runner_config(*spec, opt.seed)};
    deployed.run_key_setup();
    baselines::LdkeAdapter ldke{deployed};
    baselines::GlobalKeyScheme global_key;
    baselines::RandomPredistScheme random_predist;
    const std::pair<const char*, baselines::KeyScheme&> schemes[] = {
        {"ldke", ldke},
        {"global_key", global_key},
        {"random_predist", random_predist}};
    support::TextTable secured({"scheme", "phase", "secured links",
                                "fraction", "mean degree"});
    obs::JsonValue replays;
    for (const auto& [name, scheme] : schemes) {
      const scenario::GraphReplayResult replay =
          scenario::replay_scheme(*spec, opt.seed, scheme);
      if (replay.trace_digest != stats.trace_digest) {
        std::cerr << "trace digest mismatch for " << name
                  << " — replayers diverged\n";
        return 1;
      }
      for (const scenario::GraphPhaseStats& ps : replay.phases) {
        secured.add_row({name, ps.name,
                         std::to_string(ps.secured_pairs) + "/" +
                             std::to_string(ps.in_range_pairs),
                         support::fmt(ps.secured_link_fraction),
                         support::fmt(ps.mean_secured_degree, 1)});
      }
      replays.push(replay.to_json());
    }
    std::cout << (opt.csv ? secured.to_csv() : secured.render());
    extra.set("baseline_replays", std::move(replays));
  }

  analysis::TraceArtifacts trace;
  trace.health = engine.health();
  trace.meta_extras.emplace_back("scenario", spec->name);
  trace.meta_extras.emplace_back("scenario_digest", digest_hex);
  return emit_artifacts(runner, opt, recorders, "ldke_sim scenario", extra,
                        std::move(trace));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view command = argv[1];
  CliOptions opt;
  std::string attack_kind;
  if (const int rc = parse_options(argc, argv, 2, opt, &attack_kind)) {
    return rc;
  }

  if (command == "setup") return cmd_setup(opt);
  if (command == "sweep") return cmd_sweep(opt);
  if (command == "attack") {
    if (attack_kind.empty()) return usage();
    return cmd_attack(opt, attack_kind);
  }
  if (command == "lifecycle") return cmd_lifecycle(opt);
  if (command == "steady") return cmd_steady(opt);
  if (command == "scenario") {
    // The spec path rides the positional slot attacks use for the kind.
    if (attack_kind.empty()) return usage();
    return cmd_scenario(opt, attack_kind);
  }
  return usage();
}
