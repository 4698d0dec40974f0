/// One benchmark workload in one single-threaded process.
///
/// Reads a generated workload config (JSON) on stdin — the benchmark seed
/// never reaches this program, only the runner seed run.py derived from
/// it — builds the deployment, times set-up and the measured window on
/// the host clock, and prints one JSON line: host timings, peak RSS, the
/// deterministic simulated outcomes ("sim") and, for a traced run, the
/// per-layer figures ("layers").  run.py checks and aggregates these.
///
/// Workload kinds:
///   setup    — ProtocolRunner construction is set-up; the window is
///              run_key_setup() + run_routing_setup() (§IV-B).
///   steady   — construction + key setup + routing is set-up; the window
///              is DataPlaneEngine::run() (§IV-C DATA under refresh).
///   scenario — runner + ScenarioEngine construction is set-up; the window
///              is ScenarioEngine::run() (lifecycle under dynamics).

#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>

#include "core/dataplane.hpp"
#include "core/health_probe.hpp"
#include "core/runner.hpp"
#include "crypto/cpu_features.hpp"
#include "layer_probe.hpp"
#include "obs/json.hpp"
#include "scenario/engine.hpp"

namespace {

using namespace ldke;
using perfbench::Clock;
using obs::JsonValue;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// FNV-1a over every node's cluster and key count: pins the whole key
/// graph the setup produced in one comparable value.
std::uint64_t key_graph_digest(const core::ProtocolRunner& runner) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const auto& node : runner.nodes()) {
    mix(node->cid());
    mix(node->keys().all().size());
  }
  return h;
}

double keys_per_node(const core::ProtocolRunner& runner) {
  double keys = 0.0;
  for (const auto& node : runner.nodes()) {
    keys += static_cast<double>(node->keys().all().size());
  }
  return ratio(keys, static_cast<double>(runner.node_count()));
}

double secured_link_fraction(core::ProtocolRunner& runner) {
  const std::int64_t now = runner.sim().now().ns();
  return core::probe_health(runner, "end", now, 0, now).secured_link_fraction;
}

struct Config {
  std::string kind;
  std::size_t nodes = 0;
  double density = 0.0;
  double side_m = 0.0;
  std::uint64_t seed = 0;
  bool trace = false;
  core::DataPlaneConfig steady;
  scenario::ScenarioSpec spec;
};

Config parse_config(const std::string& text) {
  const auto doc = JsonValue::parse(text);
  if (!doc || !doc->is_object()) throw std::invalid_argument("config is not a JSON object");
  Config c;
  c.kind = doc->string_at("kind");
  c.seed = static_cast<std::uint64_t>(doc->int_at("seed"));
  c.trace = doc->bool_at("trace");
  c.nodes = static_cast<std::size_t>(doc->int_at("nodes"));
  c.density = doc->number_at("density");
  c.side_m = doc->number_at("side_m");
  if (const JsonValue* s = doc->find("steady")) {
    c.steady.duration_s = s->number_at("duration_s");
    c.steady.tick_interval_s = s->number_at("tick_interval_s");
    c.steady.readings_per_tick =
        static_cast<std::size_t>(s->int_at("readings_per_tick"));
    c.steady.reading_bytes = static_cast<std::size_t>(s->int_at("reading_bytes"));
    c.steady.refresh_interval_s = s->number_at("refresh_interval_s");
    c.steady.evict_interval_s = s->number_at("evict_interval_s");
  }
  if (const JsonValue* s = doc->find("spec")) {
    auto spec = scenario::ScenarioSpec::from_json(*s);
    if (!spec) throw std::invalid_argument("malformed scenario spec");
    c.spec = std::move(*spec);
  }
  if (c.kind != "scenario" && (c.nodes < 2 || c.side_m <= 0.0)) {
    throw std::invalid_argument("nodes and side_m must be positive");
  }
  return c;
}

core::RunnerConfig runner_config(const Config& c) {
  core::RunnerConfig rc;
  rc.node_count = c.nodes;
  rc.density = c.density;
  rc.side_m = c.side_m;
  rc.seed = c.seed;
  return rc;
}

/// Host-clock brackets around one simulated instant: probes at t-1 ns and
/// t+1 ns enclose exactly the events scheduled at t.
struct Bracket {
  std::size_t before = 0;
  std::size_t after = 0;
  bool refresh = false;  ///< a refresh round runs at t
  bool epoch = false;    ///< a motion epoch runs at t
};

class Brackets {
 public:
  void add(perfbench::ProbeChain& chain, std::int64_t t_ns, bool refresh,
           bool epoch) {
    list_.push_back({chain.add(t_ns - 1), chain.add(t_ns + 1), refresh, epoch});
  }

  /// Host milliseconds of each fired bracket matching (refresh, epoch).
  [[nodiscard]] std::vector<double> ms(const perfbench::ProbeChain& chain,
                                       bool refresh, bool epoch) const {
    std::vector<double> out;
    for (const Bracket& b : list_) {
      if (b.refresh != refresh || b.epoch != epoch) continue;
      if (!chain.has_fired(b.before) || !chain.has_fired(b.after)) continue;
      out.push_back(seconds_between(chain.at(b.before), chain.at(b.after)) * 1e3);
    }
    return out;
  }

 private:
  std::vector<Bracket> list_;
};

/// Cumulative tallies at the start of the measured window, so the layer
/// report counts only the window's work.
struct Snapshot {
  std::uint64_t tx = 0, rx = 0, tx_bytes = 0, gone = 0, partition = 0;
  std::uint64_t events = 0;
  net::Channel::KindArray kinds{};
  std::map<std::string, std::uint64_t, std::less<>> counters;
  crypto::CryptoCounters crypto;

  static Snapshot take(core::ProtocolRunner& runner) {
    net::Network& net = runner.network();
    Snapshot s;
    s.tx = net.channel().transmissions();
    s.rx = net.channel().deliveries();
    s.tx_bytes = net.channel().bytes_sent();
    s.gone = net.channel().dropped_gone();
    s.partition = net.channel().dropped_partition();
    s.events = runner.sim().events_executed();
    s.kinds = net.channel().tx_packets_by_kind();
    s.counters = net.counters().all();
    s.crypto = runner.crypto_totals();
    return s;
  }

  [[nodiscard]] std::uint64_t counter(std::string_view name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

/// Everything a workload hands to the layer report besides the runner.
struct TraceInputs {
  Snapshot base;
  perfbench::ProbeChain chain;
  Brackets brackets;
  std::unique_ptr<perfbench::LayerTaps> taps;
  std::vector<net::Vec2> positions;
  double range = 0.0;
  double key_setup_s = 0.0;
  double routing_setup_s = 0.0;
  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t engine_seals = 0;  ///< seals charged to the data-plane engine
  std::uint64_t refresh_rounds = 0;
  std::uint64_t arena_generations = 0;
  const scenario::MotionConfig* motion = nullptr;
  double side_m = 0.0;
  std::uint64_t motion_epochs = 0;
  std::uint64_t joins = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t catch_up_epochs = 0;
};

void start_trace(TraceInputs& t, core::ProtocolRunner& runner) {
  t.base = Snapshot::take(runner);
  t.taps = std::make_unique<perfbench::LayerTaps>(runner);
  const auto pos = runner.network().topology().positions();
  t.positions.assign(pos.begin(), pos.end());
  t.range = runner.network().topology().range();
}

/// Adds the data-plane brackets of one engine window starting at \p start:
/// every refresh round, every motion epoch that does not share its instant
/// with a refresh, and the plain ticks a little after each round.
void add_window_brackets(TraceInputs& t, std::int64_t start,
                         const core::DataPlaneConfig& dp, double epoch_s) {
  const std::int64_t end = start + sim::SimTime::from_seconds(dp.duration_s).ns();
  const std::int64_t tick = sim::SimTime::from_seconds(dp.tick_interval_s).ns();
  const std::int64_t refresh =
      dp.refresh_interval_s > 0.0
          ? sim::SimTime::from_seconds(dp.refresh_interval_s).ns()
          : 0;
  const std::int64_t epoch =
      epoch_s > 0.0 ? sim::SimTime::from_seconds(epoch_s).ns() : 0;
  const auto on_grid = [start](std::int64_t at, std::int64_t period) {
    return period > 0 && at > start && (at - start) % period == 0;
  };
  // An instant at the window's end is left out: the engine returns there,
  // so its closing probe would also time the caller's phase-boundary work.
  for (std::int64_t at = start + tick; at < end; at += tick) {
    const bool is_refresh = on_grid(at, refresh);
    const bool is_epoch = on_grid(at, epoch);
    // Plain ticks: two per refresh interval (or per second without one).
    const std::int64_t cadence = refresh > 0 ? refresh : 1'000'000'000;
    const bool plain_sample =
        !is_refresh && !is_epoch && ((at - start) % cadence == 2 * tick ||
                                     (at - start) % cadence == 3 * tick);
    if (is_refresh || is_epoch || plain_sample) {
      t.brackets.add(t.chain, at, is_refresh, is_epoch);
    }
  }
}

JsonValue layer_report(TraceInputs& t, core::ProtocolRunner& runner,
                       double window_s, std::uint64_t seed) {
  using perfbench::percentile;
  const Snapshot& b = t.base;
  const Snapshot now = Snapshot::take(runner);
  const auto ctr = [&](std::string_view name) {
    return now.counter(name) - b.counter(name);
  };

  const std::uint64_t events = now.events - b.events - t.chain.fired();
  const std::size_t queue_high_water = runner.sim().queue_high_water();
  const std::uint64_t rx_frames = now.rx - b.rx;
  const std::uint64_t seals = now.crypto.seals - b.crypto.seals + t.engine_seals;
  const std::uint64_t opens = now.crypto.opens - b.crypto.opens;
  const std::uint64_t open_failures =
      now.crypto.open_failures - b.crypto.open_failures;
  const std::uint64_t prf_calls = now.crypto.prf_calls - b.crypto.prf_calls;
  const std::uint64_t context_builds = t.taps->context_builds();

  const perfbench::ReplayCosts rc = perfbench::run_replays(
      *t.taps, queue_high_water, t.positions, t.range, t.motion, t.side_m, seed);

  // Refresh rounds and motion epochs from the probe brackets: each bracket
  // also holds the data tick at its instant, so the plain-tick median is
  // taken off (and the epoch cost off rounds that share an epoch instant).
  const double tick_ms = percentile(t.brackets.ms(t.chain, false, false), 0.5);
  const double epoch_ms = std::max(
      0.0, percentile(t.brackets.ms(t.chain, false, true), 0.5) - tick_ms);
  std::vector<double> refresh_ms;
  for (const bool with_epoch : {false, true}) {
    for (const double ms : t.brackets.ms(t.chain, true, with_epoch)) {
      refresh_ms.push_back(
          std::max(0.0, ms - tick_ms - (with_epoch ? epoch_ms : 0.0)));
    }
  }
  double refresh_total_ms = 0.0;
  for (const double ms : refresh_ms) refresh_total_ms += ms;

  const auto tx = static_cast<double>(now.tx - b.tx);
  const auto rx = static_cast<double>(rx_frames);
  // Setup messages per node cover the deployment's whole life (HELLO and
  // link adverts are sent before a steady window starts).
  const auto setup_msgs = static_cast<double>(
      now.kinds[static_cast<std::size_t>(net::PacketKind::kHello)] +
      now.kinds[static_cast<std::size_t>(net::PacketKind::kLinkAdvert)]);
  const auto hop_tx = static_cast<double>(ctr("data.hop_tx"));
  const auto originated = static_cast<double>(t.originated);
  const auto forwards = std::max(0.0, hop_tx - originated);
  const auto good_opens = static_cast<double>(opens - open_failures);

  std::size_t envelope_samples = 0;
  for (const perfbench::FrameSample& f : t.taps->samples()) {
    if (f.kind == static_cast<std::uint8_t>(net::PacketKind::kData) ||
        f.kind == static_cast<std::uint8_t>(net::PacketKind::kBeacon)) {
      ++envelope_samples;
    }
  }
  const double envelope_share =
      ratio(static_cast<double>(envelope_samples),
            static_cast<double>(t.taps->samples().size()));

  const double epoch_us_mean =
      rc.epoch_us.empty()
          ? 0.0
          : std::accumulate(rc.epoch_us.begin(), rc.epoch_us.end(), 0.0) /
                static_cast<double>(rc.epoch_us.size());

  // Busy estimates (nanoseconds): count x replayed per-call cost.
  const double window_ns = window_s * 1e9;
  const double busy_sim = static_cast<double>(events) * rc.sim_ns_per_event;
  const double busy_net = rx * rc.net_ns_per_rx;
  const double busy_wsn =
      rx * envelope_share * rc.wsn_split_ns + good_opens * rc.wsn_inner_ns;
  const double busy_crypto =
      static_cast<double>(seals) * rc.seal_ns +
      static_cast<double>(opens) * rc.open_ns +
      static_cast<double>(context_builds) * rc.context_ns +
      static_cast<double>(prf_calls) * rc.prf_ns;
  const double busy_core = refresh_total_ms * 1e6;
  const double busy_topo = static_cast<double>(t.motion_epochs) * epoch_us_mean * 1e3;
  const double busy_sum =
      busy_sim + busy_net + busy_wsn + busy_crypto + busy_core + busy_topo;
  const auto pct = [window_ns](double busy_ns) {
    return window_ns <= 0.0 ? 0.0 : busy_ns / window_ns * 100.0;
  };

  JsonValue m;
  m.set("sim.events", events);
  m.set("sim.ns_per_event", rc.sim_ns_per_event);
  m.set("sim.queue_high_water", static_cast<std::uint64_t>(queue_high_water));
  m.set("sim.busy_pct", pct(busy_sim));

  m.set("net.tx_frames", now.tx - b.tx);
  m.set("net.rx_frames", rx_frames);
  m.set("net.rx_per_tx", ratio(rx, tx));
  m.set("net.tx_bytes", now.tx_bytes - b.tx_bytes);
  m.set("net.dropped_gone", now.gone - b.gone);
  m.set("net.dropped_partition", now.partition - b.partition);
  m.set("net.tx_gated", ctr("pkt.tx_gated"));
  m.set("net.ns_per_rx", rc.net_ns_per_rx);
  m.set("net.busy_pct", pct(busy_net));
  m.set("net.arena.generations", t.arena_generations);
  m.set("net.topology.epochs", t.motion_epochs);
  m.set("net.topology.movers_per_epoch", rc.movers_per_epoch);
  m.set("net.topology.epoch_us_p50", percentile(rc.epoch_us, 0.5));
  m.set("net.topology.epoch_us_p95", percentile(rc.epoch_us, 0.95));
  m.set("net.topology.busy_pct", pct(busy_topo));

  m.set("wsn.decode_ns", rc.wsn_split_ns + rc.wsn_inner_ns);
  m.set("wsn.envelope_no_key", ctr("envelope.no_key"));
  m.set("wsn.envelope_auth_fail", ctr("envelope.auth_fail"));
  m.set("wsn.envelope_stale", ctr("envelope.stale"));
  m.set("wsn.envelope_replay", ctr("envelope.replay"));
  m.set("wsn.no_route", ctr("data.no_route"));
  m.set("wsn.forward_ratio",
        ratio(forwards, static_cast<double>(ctr("data.peek_ok"))));
  m.set("wsn.busy_pct", pct(busy_wsn));

  m.set("crypto.seals", seals);
  m.set("crypto.opens", opens);
  m.set("crypto.open_failures", open_failures);
  m.set("crypto.open_useful_ratio",
        ratio(forwards + static_cast<double>(t.delivered),
              static_cast<double>(opens)));
  m.set("crypto.prf_calls", prf_calls);
  m.set("crypto.seal_ns", rc.seal_ns);
  m.set("crypto.open_ns", rc.open_ns);
  m.set("crypto.prf_ns", rc.prf_ns);
  m.set("crypto.context_builds", context_builds);
  m.set("crypto.context_ns", rc.context_ns);
  m.set("crypto.batch_lanes_mean", t.taps->batch_lanes_mean());
  m.set("crypto.busy_pct", pct(busy_crypto));

  m.set("core.key_setup_s", t.key_setup_s);
  m.set("core.routing_setup_s", t.routing_setup_s);
  m.set("core.setup_msgs_per_node",
        ratio(setup_msgs, static_cast<double>(runner.node_count())));
  m.set("core.keys_per_node", keys_per_node(runner));
  m.set("core.dp_originated", t.originated);
  m.set("core.dp_hop_tx", ctr("data.hop_tx"));
  m.set("core.hops_per_origination", ratio(hop_tx, originated));
  m.set("core.refresh_rounds", t.refresh_rounds);
  m.set("core.refresh_ms_p50", percentile(refresh_ms, 0.5));
  m.set("core.refresh_ms_p95", percentile(refresh_ms, 0.95));
  m.set("core.revoke_forwarded", ctr("revoke.forwarded"));
  m.set("core.busy_pct", pct(busy_core));

  m.set("scenario.motion_epochs", t.motion_epochs);
  m.set("scenario.joins", t.joins);
  m.set("scenario.sleeps", t.sleeps);
  m.set("scenario.catch_up_epochs", t.catch_up_epochs);
  m.set("scenario.epoch_ms_p50", epoch_ms);

  m.set("obs.audit_events", t.taps->audit().total_seen());
  m.set("obs.unattributed_pct", pct(window_ns - busy_sum));
  return m;
}

struct Outcome {
  double setup_s = 0.0;
  double wall_s = 0.0;
  JsonValue sim;
  JsonValue layers;
};

Outcome run_setup(const Config& c) {
  Outcome out;
  TraceInputs t;
  const auto t0 = Clock::now();
  core::ProtocolRunner runner{runner_config(c)};
  const auto t1 = Clock::now();
  if (c.trace) start_trace(t, runner);
  const auto t2 = Clock::now();
  runner.run_key_setup();
  const auto t3 = Clock::now();
  runner.run_routing_setup();
  const auto t4 = Clock::now();
  out.setup_s = seconds_between(t0, t1);
  out.wall_s = seconds_between(t2, t4);

  JsonValue s;
  s.set("secured_link_fraction", secured_link_fraction(runner));
  s.set("key_graph_digest", hex64(key_graph_digest(runner)));
  s.set("tx_frames", runner.network().channel().transmissions());
  s.set("events", runner.sim().events_executed());
  out.sim = std::move(s);

  if (c.trace) {
    t.key_setup_s = seconds_between(t2, t3);
    t.routing_setup_s = seconds_between(t3, t4);
    out.layers = layer_report(t, runner, out.wall_s, c.seed);
    t.taps.reset();  // detach before the runner goes away
  }
  return out;
}

Outcome run_steady(const Config& c) {
  Outcome out;
  TraceInputs t;
  const auto t0 = Clock::now();
  core::ProtocolRunner runner{runner_config(c)};
  const auto t1 = Clock::now();
  runner.run_key_setup();
  const auto t2 = Clock::now();
  runner.run_routing_setup();
  core::DataPlaneEngine engine{runner, c.steady};
  const auto t3 = Clock::now();
  out.setup_s = seconds_between(t0, t3);
  if (c.trace) {
    start_trace(t, runner);
    const std::int64_t start = runner.sim().now().ns();
    t.taps->set_grid(start,
                     sim::SimTime::from_seconds(c.steady.tick_interval_s).ns(),
                     sim::SimTime::from_seconds(c.steady.refresh_interval_s).ns());
    add_window_brackets(t, start, c.steady, 0.0);
    t.chain.arm(runner.sim());
    t.key_setup_s = seconds_between(t1, t2);
    t.routing_setup_s = seconds_between(t2, t3);
  }
  const auto t4 = Clock::now();
  const core::DataPlaneStats stats = engine.run();
  out.wall_s = seconds_between(t4, Clock::now());

  const obs::DeliveryTracker& dt = runner.deliveries();
  JsonValue s;
  s.set("originated", stats.originated);
  s.set("delivered", dt.delivered());
  s.set("latency_p50_ms", dt.latency_percentile_s(0.50) * 1e3);
  s.set("latency_p95_ms", dt.latency_percentile_s(0.95) * 1e3);
  s.set("latency_samples", dt.delivered());
  s.set("secured_link_fraction", secured_link_fraction(runner));
  s.set("refresh_rounds", stats.refresh_rounds);
  s.set("hop_tx", runner.network().counters().value("data.hop_tx"));
  s.set("events", runner.sim().events_executed() - t.chain.fired());
  out.sim = std::move(s);

  if (c.trace) {
    t.originated = stats.originated;
    t.delivered = dt.delivered();
    t.engine_seals = engine.crypto_stats().seals;
    t.refresh_rounds = stats.refresh_rounds;
    t.arena_generations = stats.arena_generations;
    out.layers = layer_report(t, runner, out.wall_s, c.seed);
    t.taps.reset();  // detach before the runner goes away
  }
  return out;
}

Outcome run_scenario(const Config& c) {
  Outcome out;
  TraceInputs t;
  const scenario::ScenarioSpec& spec = c.spec;
  const auto t0 = Clock::now();
  core::ProtocolRunner runner{
      scenario::ScenarioEngine::make_runner_config(spec, c.seed)};
  scenario::ScenarioEngine engine{runner, spec};
  const auto t1 = Clock::now();
  out.setup_s = seconds_between(t0, t1);

  std::size_t key_probe = 0, routing_probe = 0;
  if (c.trace) {
    start_trace(t, runner);
    // ScenarioEngine::run() performs the runner's key setup (which ends at
    // master_erase_s + 0.05) and a 1 s routing settle before phase 0.
    const core::ProtocolConfig& p = runner.config().protocol;
    const std::int64_t key_end =
        sim::SimTime::from_seconds(p.master_erase_s + 0.05).ns();
    std::int64_t phase_start = key_end + sim::SimTime::from_seconds(1.0).ns();
    key_probe = t.chain.add(key_end);
    routing_probe = t.chain.add(phase_start);
    const std::int64_t tick = sim::SimTime::from_seconds(spec.data.tick_interval_s).ns();
    t.taps->set_grid(phase_start, tick,
                     sim::SimTime::from_seconds(spec.data.refresh_interval_s).ns());
    for (const scenario::PhaseSpec& phase : spec.phases) {
      core::DataPlaneConfig dp;
      dp.duration_s = phase.duration_s;
      dp.tick_interval_s = spec.data.tick_interval_s;
      dp.refresh_interval_s = spec.data.refresh_interval_s;
      const bool moving =
          phase.mobility && spec.motion.model != scenario::MotionModel::kNone;
      add_window_brackets(t, phase_start, dp, moving ? spec.motion.epoch_s : 0.0);
      phase_start += sim::SimTime::from_seconds(phase.duration_s).ns();
    }
    t.chain.arm(runner.sim());
    t.motion = &spec.motion;
    t.side_m = spec.side_m;
  }
  const auto t2 = Clock::now();
  const scenario::ScenarioStats stats = engine.run();
  out.wall_s = seconds_between(t2, Clock::now());

  std::uint64_t join_successes = 0, phase_originated = 0, refresh_rounds = 0;
  std::uint64_t motion_epochs = 0, sleeps = 0, catch_up = 0;
  double storm_secured = -1.0;
  for (std::size_t i = 0; i < stats.phases.size(); ++i) {
    const scenario::PhaseStats& ps = stats.phases[i];
    join_successes += ps.join_successes;
    phase_originated += ps.originated;
    refresh_rounds += ps.refresh_rounds;
    motion_epochs += ps.motion_epochs;
    sleeps += ps.sleeps;
    catch_up += ps.catch_up_epochs;
    if (ps.name == "storm" && i < engine.health().size()) {
      storm_secured = engine.health()[i].secured_link_fraction;
    }
  }
  const obs::DeliveryTracker& dt = runner.deliveries();
  JsonValue s;
  s.set("originated", stats.originated);
  s.set("delivered", stats.delivered);
  s.set("phase_originated_sum", phase_originated);
  s.set("latency_p50_ms", dt.latency_percentile_s(0.50) * 1e3);
  s.set("latency_p95_ms", dt.latency_percentile_s(0.95) * 1e3);
  s.set("latency_samples", dt.delivered());
  s.set("secured_link_fraction", storm_secured);
  s.set("joins", stats.joins);
  s.set("join_successes", join_successes);
  s.set("motion_epochs", motion_epochs);
  s.set("trace_digest", hex64(stats.trace_digest));
  s.set("events", runner.sim().events_executed() - t.chain.fired());
  out.sim = std::move(s);

  if (c.trace) {
    if (t.chain.has_fired(key_probe) && t.chain.has_fired(routing_probe)) {
      t.key_setup_s = seconds_between(t2, t.chain.at(key_probe));
      t.routing_setup_s =
          seconds_between(t.chain.at(key_probe), t.chain.at(routing_probe));
    }
    t.originated = stats.originated;
    t.delivered = stats.delivered;
    // The batched pipeline seals each origination's hop wrap on the
    // engine's own counters, which the scenario engine does not expose.
    t.engine_seals = stats.originated;
    t.refresh_rounds = refresh_rounds;
    core::DataPlaneConfig defaults;
    for (const scenario::PhaseSpec& phase : spec.phases) {
      const auto ticks = static_cast<std::uint64_t>(
          sim::SimTime::from_seconds(phase.duration_s).ns() /
          sim::SimTime::from_seconds(spec.data.tick_interval_s).ns());
      t.arena_generations += ticks / defaults.arena_generation_ticks;
    }
    t.motion_epochs = motion_epochs;
    t.joins = stats.joins;
    t.sleeps = sleeps;
    t.catch_up_epochs = catch_up;
    out.layers = layer_report(t, runner, out.wall_s, c.seed);
    t.taps.reset();  // detach before the runner goes away
  }
  return out;
}

}  // namespace

int main() {
  try {
    const std::string text{std::istreambuf_iterator<char>(std::cin),
                           std::istreambuf_iterator<char>()};
    const Config c = parse_config(text);
    Outcome out;
    if (c.kind == "setup") {
      out = run_setup(c);
    } else if (c.kind == "steady") {
      out = run_steady(c);
    } else if (c.kind == "scenario") {
      out = run_scenario(c);
    } else {
      throw std::invalid_argument("unknown workload kind '" + c.kind + "'");
    }
    JsonValue doc;
    doc.set("setup_s", out.setup_s);
    doc.set("wall_s", out.wall_s);
    doc.set("peak_rss_mb", peak_rss_mb());
    doc.set("sim", std::move(out.sim));
    if (c.trace) doc.set("layers", std::move(out.layers));
    doc.set("aesni", crypto::detail::cpu_has_aesni());
    doc.set("sha_ni", crypto::detail::cpu_has_sha_ni());
    std::cout << doc.dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "ldke_e2e: " << e.what() << "\n";
    return 2;
  }
}
