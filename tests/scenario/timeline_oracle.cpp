#include "timeline_oracle.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>

#include "scenario/mobility.hpp"  // fnv1a64 / kFnvOffsetBasis
#include "sim/time.hpp"
#include "support/rng.hpp"

namespace ldke::scenario::oracle {

namespace {

constexpr std::uint64_t kChurnSeedTag = 0x434855524eULL;  // "CHURN"
constexpr std::uint64_t kDutySeedTag = 0x44555459ULL;     // "DUTY"

bool departs(EventKind kind) {
  return kind == EventKind::kLeave || kind == EventKind::kFail;
}

}  // namespace

std::int64_t duty_offset_ns(std::uint64_t seed, net::NodeId id,
                            std::int64_t period_ns) {
  const std::uint64_t offset = support::derive_seed(seed, kDutySeedTag ^ id) %
                               static_cast<std::uint64_t>(period_ns);
  return static_cast<std::int64_t>(offset);
}

ExpandedTimeline expand(const ScenarioSpec& spec, std::uint64_t seed) {
  const std::string problem = spec.validate();
  if (!problem.empty()) {
    throw std::invalid_argument("oracle::expand: invalid spec: " + problem);
  }
  ExpandedTimeline tl;
  tl.first_join_id = static_cast<net::NodeId>(spec.nodes);
  tl.phase_counts.assign(spec.phases.size(), 0);

  std::vector<std::int64_t> starts{0};
  for (const PhaseSpec& phase : spec.phases) {
    starts.push_back(starts.back() +
                     sim::SimTime::from_seconds(phase.duration_s).ns());
  }

  std::vector<net::NodeId> alive;
  for (net::NodeId id = 1; id < spec.nodes; ++id) alive.push_back(id);
  net::NodeId next_join_id = tl.first_join_id;

  for (std::uint32_t pi = 0; pi < spec.phases.size(); ++pi) {
    const PhaseSpec& phase = spec.phases[pi];
    const std::int64_t start_ns = starts[pi];
    const std::int64_t end_ns = starts[pi + 1];
    const auto push = [&tl, pi](std::int64_t t_ns, EventKind kind,
                                net::NodeId node = net::kNoNode,
                                net::Vec2 pos = {}) {
      tl.events.push_back({Event{t_ns, kind, node, pos}, pi});
    };

    for (const ScriptedEvent& ev : phase.events) {
      push(start_ns + sim::SimTime::from_seconds(ev.at_s).ns(),
           ev.kind == ScriptedEvent::Kind::kPartition ? EventKind::kPartition
                                                      : EventKind::kHeal,
           net::kNoNode, {ev.x_m, 0.0});
    }

    if (phase.churn) {
      support::Xoshiro256 rng{
          support::derive_seed(seed, kChurnSeedTag ^ (pi * 0x9e3779b9ULL))};
      const std::size_t churn_first = tl.events.size();
      const struct {
        double rate;
        EventKind kind;
      } streams[] = {{spec.churn.leave_rate_hz, EventKind::kLeave},
                     {spec.churn.fail_rate_hz, EventKind::kFail},
                     {spec.churn.join_rate_hz, EventKind::kJoin}};
      for (const auto& stream : streams) {
        if (stream.rate <= 0.0) continue;
        double t_rel = 0.0;
        for (;;) {
          t_rel += rng.exponential(stream.rate);
          const std::int64_t t_ns =
              start_ns + sim::SimTime::from_seconds(t_rel).ns();
          if (t_ns >= end_ns) break;
          push(t_ns, stream.kind);
        }
      }
      std::vector<std::size_t> order(tl.events.size() - churn_first);
      std::iota(order.begin(), order.end(), churn_first);
      std::stable_sort(order.begin(), order.end(),
                       [&tl](std::size_t a, std::size_t b) {
                         const Event& ea = tl.events[a].event;
                         const Event& eb = tl.events[b].event;
                         if (ea.t_ns != eb.t_ns) return ea.t_ns < eb.t_ns;
                         return ea.kind < eb.kind;
                       });
      for (const std::size_t i : order) {
        Event& ev = tl.events[i].event;
        if (ev.kind == EventKind::kJoin) {
          ev.node = next_join_id++;
          const double x = rng.uniform(0.0, spec.side_m);
          const double y = rng.uniform(0.0, spec.side_m);
          ev.pos = {x, y};
          alive.push_back(ev.node);
          ++tl.joins;
          continue;
        }
        if (alive.empty()) {
          ++tl.dropped_departures;
          continue;
        }
        const std::size_t pick = static_cast<std::size_t>(
            rng.uniform_u64(static_cast<std::uint64_t>(alive.size())));
        ev.node = alive[pick];
        alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
        ++(ev.kind == EventKind::kLeave ? tl.leaves : tl.fails);
      }
      tl.events.erase(
          std::remove_if(tl.events.begin() +
                             static_cast<std::ptrdiff_t>(churn_first),
                         tl.events.end(),
                         [](const PhasedEvent& pe) {
                           return departs(pe.event.kind) &&
                                  pe.event.node == net::kNoNode;
                         }),
          tl.events.end());
    }

    if (phase.duty && spec.duty.active_fraction < 1.0) {
      const std::int64_t period_ns =
          sim::SimTime::from_seconds(spec.duty.period_s).ns();
      const auto on_ns = static_cast<std::int64_t>(
          spec.duty.active_fraction * static_cast<double>(period_ns));
      for (net::NodeId id = 1; id < spec.nodes; ++id) {
        const std::int64_t offset_ns = duty_offset_ns(seed, id, period_ns);
        for (std::int64_t anchor = start_ns + offset_ns;; anchor += period_ns) {
          if (anchor + on_ns >= end_ns) break;
          push(anchor + on_ns, EventKind::kSleep, id);
          if (anchor + period_ns >= end_ns) break;
          push(anchor + period_ns, EventKind::kWake, id);
        }
      }
    }
  }

  std::stable_sort(tl.events.begin(), tl.events.end(),
                   [](const PhasedEvent& a, const PhasedEvent& b) {
                     if (a.event.t_ns != b.event.t_ns) {
                       return a.event.t_ns < b.event.t_ns;
                     }
                     if (a.event.kind != b.event.kind) {
                       return a.event.kind < b.event.kind;
                     }
                     return a.event.node < b.event.node;
                   });

  std::uint64_t h = kFnvOffsetBasis;
  for (const PhasedEvent& pe : tl.events) {
    const Event& ev = pe.event;
    h = fnv1a64(h, static_cast<std::uint64_t>(ev.t_ns));
    h = fnv1a64(h, static_cast<std::uint64_t>(ev.kind));
    h = fnv1a64(h, ev.node);
    h = fnv1a64(h, std::bit_cast<std::uint64_t>(ev.pos.x));
    h = fnv1a64(h, std::bit_cast<std::uint64_t>(ev.pos.y));
    ++tl.phase_counts[pe.phase];
  }
  tl.digest = h;
  return tl;
}

}  // namespace ldke::scenario::oracle
