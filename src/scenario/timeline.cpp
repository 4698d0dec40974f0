#include "scenario/timeline.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "scenario/mobility.hpp"  // fnv1a64 / kFnvOffsetBasis
#include "sim/time.hpp"
#include "support/rng.hpp"

namespace ldke::scenario {

namespace {

constexpr std::uint64_t kChurnSeedTag = 0x434855524eULL;  // "CHURN"
constexpr std::uint64_t kDutySeedTag = 0x44555459ULL;     // "DUTY"

support::Xoshiro256 churn_stream(std::uint64_t seed, std::uint32_t phase) {
  return support::Xoshiro256{
      support::derive_seed(seed, kChurnSeedTag ^ (phase * 0x9e3779b9ULL))};
}

/// Draws one churning phase's arrival times from \p rng, stream by
/// stream (leave, fail, join), calling emit(t_ns, kind) for each.  A
/// phase's churn_stream() starts fresh from (seed, phase), so a second
/// stream replays the same arrivals without disturbing the first.
template <typename Emit>
void churn_arrivals(const ScenarioSpec& spec, support::Xoshiro256& rng,
                    std::int64_t start_ns, std::int64_t end_ns, Emit&& emit) {
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
      emit(t_ns, stream.kind);
    }
  }
}

/// Calls emit(t_ns, kind, node) for every duty flip of one phase, node
/// by node.  Original sensors only (joiner lifetimes are churn-managed);
/// the base station never sleeps.  Gone nodes still get events — both
/// replayers treat sleep/wake on a departed node as a no-op.
template <typename Emit>
void duty_flips(const ScenarioSpec& spec, std::uint64_t seed,
                std::int64_t start_ns, std::int64_t end_ns, Emit&& emit) {
  const std::int64_t period_ns =
      sim::SimTime::from_seconds(spec.duty.period_s).ns();
  const auto on_ns = static_cast<std::int64_t>(
      spec.duty.active_fraction * static_cast<double>(period_ns));
  for (net::NodeId id = 1; id < spec.nodes; ++id) {
    const std::int64_t offset_ns = static_cast<std::int64_t>(
        support::derive_seed(seed, kDutySeedTag ^ id) %
        static_cast<std::uint64_t>(period_ns));
    for (std::int64_t anchor = start_ns + offset_ns;; anchor += period_ns) {
      const std::int64_t sleep_ns = anchor + on_ns;
      const std::int64_t wake_ns = anchor + period_ns;
      if (sleep_ns >= end_ns) break;
      emit(sleep_ns, EventKind::kSleep, id);
      if (wake_ns >= end_ns) break;  // phase end forces the wake
      emit(wake_ns, EventKind::kWake, id);
    }
  }
}

bool duty_cycles(const ScenarioSpec& spec, const PhaseSpec& phase) {
  return phase.duty && spec.duty.active_fraction < 1.0;
}

}  // namespace

Timeline Timeline::expand(const ScenarioSpec& spec, std::uint64_t seed) {
  const std::string problem = spec.validate();
  if (!problem.empty()) {
    throw std::invalid_argument("Timeline::expand: invalid spec: " + problem);
  }
  Timeline tl;
  tl.first_join_id_ = static_cast<net::NodeId>(spec.nodes);

  // Exact integer phase boundaries, shared with the engine's sim clock.
  tl.phase_starts_ns_.push_back(0);
  for (const PhaseSpec& phase : spec.phases) {
    tl.phase_starts_ns_.push_back(
        tl.phase_starts_ns_.back() +
        sim::SimTime::from_seconds(phase.duration_s).ns());
  }

  // Count first, so the events are built once, in place, in a vector
  // that never reallocates.
  std::size_t count = 0;
  for (std::uint32_t pi = 0; pi < spec.phases.size(); ++pi) {
    const PhaseSpec& phase = spec.phases[pi];
    const std::int64_t start_ns = tl.phase_starts_ns_[pi];
    const std::int64_t end_ns = tl.phase_starts_ns_[pi + 1];
    count += phase.events.size();
    if (phase.churn) {
      support::Xoshiro256 rng = churn_stream(seed, pi);
      churn_arrivals(spec, rng, start_ns, end_ns,
                     [&count](std::int64_t, EventKind) { ++count; });
    }
    if (duty_cycles(spec, phase)) {
      duty_flips(spec, seed, start_ns, end_ns,
                 [&count](std::int64_t, EventKind, net::NodeId) { ++count; });
    }
  }
  tl.events_.reserve(count);

  // Alive set for churn victim selection: every original node except
  // the base station, plus joiners as they arrive.  Maintained in the
  // merged time order of the churn events, so selection is a pure
  // function of (spec, seed).
  std::vector<net::NodeId> alive;
  alive.reserve(spec.nodes);
  for (net::NodeId id = 1; id < spec.nodes; ++id) alive.push_back(id);
  net::NodeId next_join_id = tl.first_join_id_;

  // Events are generated phase by phase — scripted, churn, duty — and
  // only edited in place afterwards, so stable sorts let generation
  // order break every remaining tie.
  for (std::uint32_t pi = 0; pi < spec.phases.size(); ++pi) {
    const PhaseSpec& phase = spec.phases[pi];
    const std::int64_t start_ns = tl.phase_starts_ns_[pi];
    const std::int64_t end_ns = tl.phase_starts_ns_[pi + 1];
    const auto push = [&tl, pi](std::int64_t t_ns, EventKind kind,
                                net::NodeId node = net::kNoNode,
                                net::Vec2 pos = {}) {
      tl.events_.push_back(Event{t_ns, kind, node, pos, pi});
    };

    for (const ScriptedEvent& ev : phase.events) {
      push(start_ns + sim::SimTime::from_seconds(ev.at_s).ns(),
           ev.kind == ScriptedEvent::Kind::kPartition ? EventKind::kPartition
                                                      : EventKind::kHeal,
           net::kNoNode, {ev.x_m, 0.0});
    }

    if (phase.churn) {
      // Arrival times first (stream order: leave, fail, join), victims
      // and positions second in merged time order — so two replayers
      // agree even when streams interleave.
      support::Xoshiro256 churn_rng = churn_stream(seed, pi);
      const std::size_t churn_first = tl.events_.size();
      churn_arrivals(spec, churn_rng, start_ns, end_ns,
                     [&push](std::int64_t t_ns, EventKind kind) {
                       push(t_ns, kind);
                     });
      std::vector<std::size_t> order(tl.events_.size() - churn_first);
      std::iota(order.begin(), order.end(), churn_first);
      std::stable_sort(order.begin(), order.end(),
                       [&tl](std::size_t a, std::size_t b) {
                         const Event& ea = tl.events_[a];
                         const Event& eb = tl.events_[b];
                         if (ea.t_ns != eb.t_ns) return ea.t_ns < eb.t_ns;
                         return ea.kind < eb.kind;
                       });
      for (const std::size_t i : order) {
        Event& ev = tl.events_[i];
        if (ev.kind == EventKind::kJoin) {
          ev.node = next_join_id++;
          const double x = churn_rng.uniform(0.0, spec.side_m);
          const double y = churn_rng.uniform(0.0, spec.side_m);
          ev.pos = {x, y};
          alive.push_back(ev.node);  // ids ascend, so stays sorted
          ++tl.joins_;
          continue;
        }
        if (alive.empty()) {
          ev.kind = EventKind::kHeal;  // degrade to a no-op; never in
          ev.t_ns = end_ns - 1;        // practice (network emptied out)
          continue;
        }
        const std::size_t pick = static_cast<std::size_t>(
            churn_rng.uniform_u64(static_cast<std::uint64_t>(alive.size())));
        ev.node = alive[pick];
        alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
        if (ev.kind == EventKind::kLeave) {
          ++tl.leaves_;
        } else {
          ++tl.fails_;
        }
      }
    }

    if (duty_cycles(spec, phase)) {
      duty_flips(spec, seed, start_ns, end_ns,
                 [&push](std::int64_t t_ns, EventKind kind, net::NodeId id) {
                   push(t_ns, kind, id);
                 });
    }
  }

  // Global canonical order (time, kind, node, generation order).  Phases
  // are disjoint windows, so each phase's slice stays contiguous.
  std::stable_sort(tl.events_.begin(), tl.events_.end(),
                   [](const Event& a, const Event& b) {
                     if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
                     if (a.kind != b.kind) return a.kind < b.kind;
                     return a.node < b.node;
                   });

  std::uint64_t h = kFnvOffsetBasis;
  for (const Event& ev : tl.events_) {
    h = fnv1a64(h, static_cast<std::uint64_t>(ev.t_ns));
    h = fnv1a64(h, static_cast<std::uint64_t>(ev.kind));
    h = fnv1a64(h, ev.node);
    h = fnv1a64(h, std::bit_cast<std::uint64_t>(ev.pos.x));
    h = fnv1a64(h, std::bit_cast<std::uint64_t>(ev.pos.y));
  }
  tl.digest_ = h;
  return tl;
}

std::span<const Event> Timeline::phase_events(
    std::uint32_t phase) const noexcept {
  const auto begin = std::find_if(
      events_.begin(), events_.end(),
      [phase](const Event& ev) { return ev.phase == phase; });
  auto end = begin;
  while (end != events_.end() && end->phase == phase) ++end;
  return {begin == events_.end() ? nullptr : &*begin,
          static_cast<std::size_t>(end - begin)};
}

}  // namespace ldke::scenario
