#include "scenario/baseline_replay.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "scenario/mobility.hpp"
#include "scenario/timeline.hpp"
#include "sim/time.hpp"
#include "support/rng.hpp"

namespace ldke::scenario {

namespace {

constexpr std::uint64_t kSchemeSeedTag = 0x534348454d45ULL;  // "SCHEME"

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

}  // namespace

net::Topology initial_topology(const ScenarioSpec& spec, std::uint64_t seed) {
  // Mirrors ProtocolRunner's construction: placement is the first use
  // of the trial stream Xoshiro256{seed}.
  support::Xoshiro256 rng{seed};
  return net::Topology::random_with_density(spec.nodes, spec.side_m,
                                            spec.density, rng);
}

GraphReplayResult replay_scheme(const ScenarioSpec& spec, std::uint64_t seed,
                                baselines::KeyScheme& scheme) {
  const std::string problem = spec.validate();
  if (!problem.empty()) {
    throw std::invalid_argument("replay_scheme: invalid spec: " + problem);
  }

  net::Topology topo = initial_topology(spec, seed);
  support::Xoshiro256 scheme_rng{support::derive_seed(seed, kSchemeSeedTag)};
  scheme.setup(topo, scheme_rng);

  const Timeline timeline{spec, seed};
  MobilityField mobility{spec.motion, spec.side_m, topo.positions(),
                         support::derive_seed(seed, kMotionSeedTag)};
  std::uint64_t digest = timeline.digest();
  digest = mobility.fold_digest(digest);

  const std::size_t original = spec.nodes;
  const double range =
      net::Topology::range_for_density(spec.nodes, spec.side_m, spec.density);
  std::vector<bool> alive(original, true);
  std::vector<bool> asleep(original, false);

  GraphReplayResult result;
  result.scheme = std::string(scheme.name());

  const std::int64_t epoch_ns =
      sim::SimTime::from_seconds(spec.motion.epoch_s).ns();

  for (std::uint32_t pi = 0; pi < spec.phases.size(); ++pi) {
    const PhaseSpec& phase = spec.phases[pi];
    const std::int64_t start_ns = timeline.phase_start_ns(pi);
    const std::int64_t end_ns = timeline.phase_end_ns(pi);
    Timeline::Cursor cursor = timeline.phase_cursor(pi);

    auto apply_events_until = [&](std::int64_t t_ns) {
      // The engine schedules timeline events before the motion driver,
      // so at a shared timestamp events run first: consume t <= t_ns.
      for (; !cursor.done() && cursor->t_ns <= t_ns; cursor.advance()) {
        const Event& ev = *cursor;
        switch (ev.kind) {
          case EventKind::kLeave:
          case EventKind::kFail:
            if (ev.node < alive.size() && alive[ev.node]) {
              alive[ev.node] = false;
              mobility.freeze(ev.node);
            }
            break;
          case EventKind::kJoin:
            if (ev.node >= alive.size()) {
              alive.resize(ev.node + 1, false);
              asleep.resize(ev.node + 1, false);
            }
            alive[ev.node] = true;
            mobility.add_node(ev.pos);
            break;
          case EventKind::kSleep:
            if (ev.node < alive.size() && alive[ev.node]) {
              asleep[ev.node] = true;
            }
            break;
          case EventKind::kWake:
            if (ev.node < asleep.size()) asleep[ev.node] = false;
            break;
          case EventKind::kPartition:
          case EventKind::kHeal:
            // Scripted walls do not change the key graph, and phases
            // end healed; they contribute to the digest only.
            break;
        }
      }
    };

    if (phase.mobility && spec.motion.model != MotionModel::kNone) {
      const std::int64_t epochs = (end_ns - start_ns) / epoch_ns;
      for (std::int64_t k = 1; k <= epochs; ++k) {
        apply_events_until(start_ns + k * epoch_ns);
        mobility.advance(spec.motion.epoch_s);
        digest = mobility.fold_digest(digest);
      }
    }
    apply_events_until(end_ns - 1);  // events are strictly inside the phase

    // Phase-end census *before* the boundary wake-up, so duty cycling
    // shows up as unavailable links the way it costs deliveries in the
    // packet engine.
    GraphPhaseStats ps;
    ps.name = phase.name;
    const std::span<const net::Vec2> positions = mobility.positions();
    std::size_t alive_count = 0;
    std::size_t awake_count = 0;
    for (std::size_t id = 0; id < alive.size(); ++id) {
      if (!alive[id]) continue;
      ++alive_count;
      if (!asleep[id]) ++awake_count;
    }
    ps.alive_fraction = alive.empty() ? 0.0
                                      : static_cast<double>(alive_count) /
                                            static_cast<double>(alive.size());
    ps.awake_fraction = alive_count == 0
                            ? 0.0
                            : static_cast<double>(awake_count) /
                                  static_cast<double>(alive_count);

    std::vector<bool> unkeyed_seen(alive.size(), false);
    net::Topology snapshot = net::Topology::from_positions(
        std::vector<net::Vec2>(positions.begin(), positions.end()), range);
    for (net::NodeId u = 0; u < snapshot.size(); ++u) {
      if (!alive[u] || asleep[u]) continue;
      for (const net::NodeId v : snapshot.neighbors(u)) {
        if (v <= u) continue;
        if (!alive[v] || asleep[v]) continue;
        ++ps.in_range_pairs;
        if (u >= original || v >= original) {
          // The scheme predistributed before deployment; joiners carry
          // no material from it.
          if (u >= original && !unkeyed_seen[u]) {
            unkeyed_seen[u] = true;
            ++ps.unkeyed_nodes;
          }
          if (v >= original && !unkeyed_seen[v]) {
            unkeyed_seen[v] = true;
            ++ps.unkeyed_nodes;
          }
          continue;
        }
        if (scheme.link_secured(u, v)) ++ps.secured_pairs;
      }
    }
    ps.secured_link_fraction =
        ps.in_range_pairs == 0
            ? 0.0
            : static_cast<double>(ps.secured_pairs) /
                  static_cast<double>(ps.in_range_pairs);
    ps.mean_secured_degree =
        awake_count == 0 ? 0.0
                         : 2.0 * static_cast<double>(ps.secured_pairs) /
                               static_cast<double>(awake_count);
    result.phases.push_back(std::move(ps));

    // Phase boundary: everyone awake, wall healed (mirrors the engine).
    std::fill(asleep.begin(), asleep.end(), false);
  }

  result.trace_digest = digest;
  return result;
}

obs::JsonValue GraphReplayResult::to_json() const {
  using obs::JsonValue;
  JsonValue doc;
  doc.set("scheme", scheme);
  doc.set("trace_digest", hex64(trace_digest));
  JsonValue phase_array;
  for (const GraphPhaseStats& ps : phases) {
    JsonValue p;
    p.set("name", ps.name);
    p.set("alive_fraction", ps.alive_fraction);
    p.set("awake_fraction", ps.awake_fraction);
    p.set("in_range_pairs", ps.in_range_pairs);
    p.set("secured_pairs", ps.secured_pairs);
    p.set("secured_link_fraction", ps.secured_link_fraction);
    p.set("mean_secured_degree", ps.mean_secured_degree);
    p.set("unkeyed_nodes", ps.unkeyed_nodes);
    phase_array.push(std::move(p));
  }
  doc.set("phases", std::move(phase_array));
  return doc;
}

}  // namespace ldke::scenario
