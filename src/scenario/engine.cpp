#include "scenario/engine.hpp"

#include <cinttypes>
#include <cstdio>
#include <stdexcept>

#include "support/rng.hpp"

namespace ldke::scenario {

namespace {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

ScenarioSpec validated(ScenarioSpec spec) {
  const std::string problem = spec.validate();
  if (!problem.empty()) {
    throw std::invalid_argument("ScenarioEngine: invalid spec: " + problem);
  }
  return spec;
}

}  // namespace

core::RunnerConfig ScenarioEngine::make_runner_config(const ScenarioSpec& spec,
                                                      std::uint64_t seed) {
  core::RunnerConfig config;
  config.node_count = spec.nodes;
  config.density = spec.density;
  config.side_m = spec.side_m;
  config.seed = seed;
  config.with_base_station = true;
  return config;
}

ScenarioEngine::ScenarioEngine(core::ProtocolRunner& runner, ScenarioSpec spec)
    : runner_(runner),
      spec_(validated(std::move(spec))),
      timeline_(spec_, runner.config().seed),
      mobility_(spec_.motion, spec_.side_m,
                runner.network().topology().positions(),
                support::derive_seed(runner.config().seed, kMotionSeedTag)) {
  if (runner_.config().node_count != spec_.nodes ||
      runner_.config().side_m != spec_.side_m ||
      runner_.config().density != spec_.density ||
      !runner_.config().with_base_station) {
    throw std::invalid_argument(
        "ScenarioEngine: runner config does not match the spec — build the "
        "runner from ScenarioEngine::make_runner_config()");
  }
  // Fail fast: a sharded kernel could only throw mid-run before, after
  // setup already burned real work.
  if (runner_.sim().kernel() != nullptr) {
    throw std::invalid_argument(
        "ScenarioEngine requires the serial event loop (kernel lanes == 1): "
        "scenario events mutate node state across the whole deployment");
  }
}

std::uint32_t ScenarioEngine::global_hash_epoch() const noexcept {
  const auto live =
      current_dp_ != nullptr
          ? static_cast<std::uint32_t>(current_dp_->stats().refresh_rounds)
          : 0U;
  return hash_epochs_done_ + live;
}

void ScenarioEngine::apply_event(const Event& ev, PhaseStats& ps) {
  net::Network& net = runner_.network();
  switch (ev.kind) {
    case EventKind::kLeave:
    case EventKind::kFail:
      if (net.radio_state(ev.node) == net::RadioState::kGone) break;
      net.mark_gone(ev.node);
      mobility_.freeze(ev.node);
      if (ev.kind == EventKind::kLeave) {
        net.audit(obs::AuditKind::kNodeLeft, ev.node);
        ++ps.leaves;
      } else {
        net.audit(obs::AuditKind::kNodeFailed, ev.node);
        ++ps.fails;
      }
      break;
    case EventKind::kJoin: {
      core::SensorNode& joined = runner_.deploy_new_node(ev.pos);
      if (joined.id() != ev.node) {
        throw std::logic_error(
            "ScenarioEngine: join id diverged from the timeline");
      }
      mobility_.add_node(ev.pos);
      phase_join_ids_.push_back(ev.node);
      ++ps.joins;
      break;
    }
    case EventKind::kSleep:
      if (net.radio_state(ev.node) != net::RadioState::kActive) break;
      net.set_asleep(ev.node, true);
      net.audit(obs::AuditKind::kSleep, ev.node);
      ++ps.sleeps;
      break;
    case EventKind::kWake: {
      if (net.radio_state(ev.node) != net::RadioState::kAsleep) break;
      net.set_asleep(ev.node, false);
      const std::uint32_t caught =
          runner_.node(ev.node).catch_up_hash_epoch(global_hash_epoch());
      ps.catch_up_epochs += caught;
      net.audit(obs::AuditKind::kWake, ev.node, obs::kAuditNoSubject, caught);
      ++ps.wakes;
      break;
    }
    case EventKind::kPartition:
      net.set_partition_x(ev.pos.x);
      net.audit(obs::AuditKind::kPartition, runner_.base_station()->id(),
                obs::kAuditNoSubject,
                static_cast<std::uint64_t>(ev.pos.x * 1e3));  // wall x in mm
      ++ps.partitions;
      break;
    case EventKind::kHeal:
      net.clear_partition();
      net.audit(obs::AuditKind::kHeal, runner_.base_station()->id());
      ++ps.heals;
      break;
  }
}

void ScenarioEngine::schedule_timeline_event() {
  if (stream_.cursor.done()) return;
  const Event ev = *stream_.cursor;
  stream_.cursor.advance();
  auto fn = [this, ev] {
    // Push the successor before applying this event.  Its key
    // (t, next_seq) sorts after this event's, and nothing keyed after
    // this event has run yet, so it runs exactly where the whole
    // timeline scheduled at phase start would have put it.
    schedule_timeline_event();
    apply_event(ev, *stream_.stats);
  };
  static_assert(sizeof(fn) <= sim::EventFn::kInlineBytes,
                "timeline event must stay within EventFn's inline buffer");
  runner_.sim().schedule_reserved(
      sim::SimTime::from_ns(stream_.offset_ns + ev.t_ns), stream_.next_seq++,
      std::move(fn));
}

void ScenarioEngine::schedule_motion_epochs(sim::SimTime phase_end,
                                            double epoch_s, PhaseStats& ps) {
  sim::Simulator& sim = runner_.sim();
  const sim::SimTime next = sim.now() + sim::SimTime::from_seconds(epoch_s);
  if (next > phase_end) return;
  sim.schedule_at(next, [this, phase_end, epoch_s, &ps] {
    mobility_.advance(epoch_s);
    const MobilityField::Displacements delta = mobility_.displacements();
    runner_.network().apply_displacements(delta.ids, delta.positions);
    digest_ = mobility_.fold_digest(digest_);
    ++ps.motion_epochs;
    // Orphan-seconds sampled at the epoch cadence: nodes whose cluster
    // key vanished (eviction, or a joiner that never completed).
    std::uint64_t orphans = 0;
    const net::Network& net = runner_.network();
    for (const auto& node : runner_.nodes()) {
      if (!net.is_active(node->id())) continue;
      if (!node->keys().has_own()) ++orphans;
    }
    ps.orphan_node_s += static_cast<double>(orphans) * epoch_s;
    schedule_motion_epochs(phase_end, epoch_s, ps);
  });
}

void ScenarioEngine::finish_phase(std::uint32_t pi, PhaseStats& ps,
                                  const core::DataPlaneStats& dp_stats,
                                  std::int64_t phase_start_sim_ns) {
  net::Network& net = runner_.network();
  const PhaseSpec& phase = spec_.phases[pi];

  // Phases end with every surviving node awake (the next phase — or the
  // §IV-C recluster — starts from a listening deployment) ...
  for (const auto& node : runner_.nodes()) {
    if (net.radio_state(node->id()) != net::RadioState::kAsleep) continue;
    net.set_asleep(node->id(), false);
    const std::uint32_t caught =
        node->catch_up_hash_epoch(global_hash_epoch());
    ps.catch_up_epochs += caught;
    net.audit(obs::AuditKind::kWake, node->id(), obs::kAuditNoSubject, caught);
    ++ps.forced_wakes;
  }
  // ... and with the scripted wall healed.
  if (net.partition_x()) {
    net.clear_partition();
    net.audit(obs::AuditKind::kHeal, runner_.base_station()->id());
    ++ps.heals;
  }

  ps.attempts = dp_stats.attempts;
  ps.originated = dp_stats.originated;
  ps.refresh_rounds = dp_stats.refresh_rounds;

  const std::int64_t now_ns = runner_.sim().now().ns();
  const auto window =
      runner_.deliveries().window_stats(phase_start_sim_ns, now_ns);
  ps.delivered = window.delivered;
  ps.latency_p50_ms = window.p50_s * 1e3;
  ps.latency_p95_ms = window.p95_s * 1e3;

  for (const net::NodeId id : phase_join_ids_) {
    if (runner_.node(id).role() == core::Role::kMember) ++ps.join_successes;
  }

  const std::uint32_t global = hash_epochs_done_;
  std::uint64_t orphans = 0;
  std::uint64_t heads = 0;
  double lag = 0.0;
  std::size_t active = 0;
  for (const auto& node : runner_.nodes()) {
    if (!net.is_active(node->id())) continue;
    ++active;
    if (node->role() == core::Role::kHead) ++heads;
    if (!node->keys().has_own()) ++orphans;
    if (global > node->hash_epoch()) lag += global - node->hash_epoch();
  }
  ps.orphans_end = orphans;
  ps.heads_end = heads;
  ps.hash_epoch_lag_end =
      active == 0 ? 0.0 : lag / static_cast<double>(active);
  ps.mean_degree_end = net.topology().mean_degree();
  health_.push_back(core::probe_health(runner_, phase.name, now_ns,
                                       phase_start_sim_ns, now_ns));
  if (!(phase.mobility && spec_.motion.model != MotionModel::kNone)) {
    // No epoch sampling ran: charge the end-of-phase census for the
    // whole window instead.
    ps.orphan_node_s = static_cast<double>(orphans) * phase.duration_s;
  }
}

ScenarioStats ScenarioEngine::run() {
  if (runner_.base_station() == nullptr) {
    throw std::invalid_argument(
        "ScenarioEngine needs a base station for routing and delivery");
  }

  runner_.run_key_setup();
  runner_.run_routing_setup();

  digest_ = timeline_.digest();
  digest_ = mobility_.fold_digest(digest_);  // initial placement

  stats_ = {};
  health_.clear();
  stats_.name = spec_.name;
  stats_.seed = runner_.config().seed;
  stats_.duration_s = spec_.total_duration_s();

  net::Network& net = runner_.network();
  sim::Simulator& sim = runner_.sim();
  double scenario_clock_s = 0.0;

  for (std::uint32_t pi = 0; pi < spec_.phases.size(); ++pi) {
    const PhaseSpec& phase = spec_.phases[pi];
    PhaseStats ps;
    ps.name = phase.name;
    ps.start_s = scenario_clock_s;
    ps.end_s = scenario_clock_s + phase.duration_s;
    phase_join_ids_.clear();

    const std::uint64_t gone0 = net.channel().dropped_gone();
    const std::uint64_t part0 = net.channel().dropped_partition();
    const std::uint64_t gated0 =
        net.counters().value(obs::Counter::kPktTxGated);

    const std::int64_t phase_start_sim_ns = sim.now().ns();
    const sim::SimTime phase_end =
        sim.now() + sim::SimTime::from_seconds(phase.duration_s);
    // Timeline events first, motion driver second: the phase's timeline
    // takes the next block of sequence numbers, so at coincident
    // timestamps every timeline event runs before the drivers scheduled
    // below, as the graph replay applies events before the epoch.  The
    // events themselves are streamed: only the next one due is pending.
    stream_.cursor = timeline_.phase_cursor(pi);
    stream_.offset_ns = phase_start_sim_ns - timeline_.phase_start_ns(pi);
    stream_.next_seq = sim.reserve_sequence(timeline_.phase_event_count(pi));
    stream_.stats = &ps;
    schedule_timeline_event();
    if (phase.mobility && spec_.motion.model != MotionModel::kNone) {
      schedule_motion_epochs(phase_end, spec_.motion.epoch_s, ps);
    }

    core::DataPlaneConfig dp_config;
    dp_config.duration_s = phase.duration_s;
    dp_config.tick_interval_s = spec_.data.tick_interval_s;
    dp_config.readings_per_tick = spec_.data.readings_per_tick;
    dp_config.reading_bytes = spec_.data.reading_bytes;
    dp_config.refresh_interval_s = spec_.data.refresh_interval_s;
    dp_config.evict_interval_s = spec_.data.evict_interval_s;
    dp_config.evict_batch = spec_.data.evict_batch;
    core::DataPlaneEngine dp{runner_, dp_config};
    current_dp_ = &dp;
    const core::DataPlaneStats dp_stats = dp.run();
    current_dp_ = nullptr;
    hash_epochs_done_ += static_cast<std::uint32_t>(dp_stats.refresh_rounds);

    finish_phase(pi, ps, dp_stats, phase_start_sim_ns);
    ps.dropped_gone = net.channel().dropped_gone() - gone0;
    ps.dropped_partition = net.channel().dropped_partition() - part0;
    ps.tx_gated = net.counters().value(obs::Counter::kPktTxGated) - gated0;

    if (phase.recluster_after) {
      runner_.run_recluster_round();
      ps.reclustered = 1;
      ++stats_.reclusters;
    }

    scenario_clock_s = ps.end_s;
    stats_.phases.push_back(std::move(ps));
  }

  for (const PhaseStats& ps : stats_.phases) {
    stats_.originated += ps.originated;
    stats_.delivered += ps.delivered;
    stats_.dropped_gone += ps.dropped_gone;
    stats_.dropped_partition += ps.dropped_partition;
    stats_.tx_gated += ps.tx_gated;
    stats_.joins += ps.joins;
    stats_.leaves += ps.leaves;
    stats_.fails += ps.fails;
  }
  stats_.trace_digest = digest_;
  return stats_;
}

obs::JsonValue ScenarioStats::to_json() const {
  using obs::JsonValue;
  JsonValue doc;
  doc.set("name", name);
  doc.set("seed", seed);
  doc.set("trace_digest", hex64(trace_digest));
  doc.set("duration_s", duration_s);
  doc.set("originated", originated);
  doc.set("delivered", delivered);
  doc.set("dropped_gone", dropped_gone);
  doc.set("dropped_partition", dropped_partition);
  doc.set("tx_gated", tx_gated);
  doc.set("joins", joins);
  doc.set("leaves", leaves);
  doc.set("fails", fails);
  doc.set("reclusters", reclusters);
  JsonValue phase_array;
  for (const PhaseStats& ps : phases) {
    JsonValue p;
    p.set("name", ps.name);
    p.set("start_s", ps.start_s);
    p.set("end_s", ps.end_s);
    p.set("attempts", ps.attempts);
    p.set("originated", ps.originated);
    p.set("delivered", ps.delivered);
    p.set("delivery_ratio", ps.delivery_ratio());
    p.set("latency_p50_ms", ps.latency_p50_ms);
    p.set("latency_p95_ms", ps.latency_p95_ms);
    p.set("dropped_gone", ps.dropped_gone);
    p.set("dropped_partition", ps.dropped_partition);
    p.set("tx_gated", ps.tx_gated);
    p.set("motion_epochs", ps.motion_epochs);
    p.set("joins", ps.joins);
    p.set("join_successes", ps.join_successes);
    p.set("leaves", ps.leaves);
    p.set("fails", ps.fails);
    p.set("sleeps", ps.sleeps);
    p.set("wakes", ps.wakes);
    p.set("forced_wakes", ps.forced_wakes);
    p.set("partitions", ps.partitions);
    p.set("heals", ps.heals);
    p.set("reclustered", ps.reclustered);
    p.set("refresh_rounds", ps.refresh_rounds);
    p.set("catch_up_epochs", ps.catch_up_epochs);
    p.set("hash_epoch_lag_end", ps.hash_epoch_lag_end);
    p.set("orphans_end", ps.orphans_end);
    p.set("orphan_node_s", ps.orphan_node_s);
    p.set("heads_end", ps.heads_end);
    p.set("mean_degree_end", ps.mean_degree_end);
    phase_array.push(std::move(p));
  }
  doc.set("phases", std::move(phase_array));
  return doc;
}

}  // namespace ldke::scenario
