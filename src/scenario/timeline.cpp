#include "scenario/timeline.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>
#include <string>

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
/// stream (leave, fail, join), calling emit(t_ns, kind) for each.
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

bool duty_cycles(const ScenarioSpec& spec, const PhaseSpec& phase) {
  return phase.duty && spec.duty.active_fraction < 1.0;
}

/// The canonical order: time, then kind, then node.
bool before(const Event& a, const Event& b) noexcept {
  if (a.t_ns != b.t_ns) return a.t_ns < b.t_ns;
  if (a.kind != b.kind) return a.kind < b.kind;
  return a.node < b.node;
}

/// Number of times first_ns, first_ns + period_ns, ... fall before
/// length_ns.
std::size_t flips_before(std::int64_t length_ns, std::int64_t first_ns,
                         std::int64_t period_ns) {
  const std::int64_t room = length_ns - first_ns;
  return room <= 0 ? 0
                   : static_cast<std::size_t>((room + period_ns - 1) /
                                              period_ns);
}

}  // namespace

Timeline::Timeline(const ScenarioSpec& spec, std::uint64_t seed)
    : first_join_id_(static_cast<net::NodeId>(spec.nodes)) {
  const std::string problem = spec.validate();
  if (!problem.empty()) {
    throw std::invalid_argument("Timeline: invalid spec: " + problem);
  }

  // Exact integer phase boundaries, shared with the engine's sim clock.
  phase_starts_ns_.push_back(0);
  for (const PhaseSpec& phase : spec.phases) {
    phase_starts_ns_.push_back(
        phase_starts_ns_.back() +
        sim::SimTime::from_seconds(phase.duration_s).ns());
  }
  build_script(spec, seed);
  build_duty(spec, seed);

  // Per-phase counts by arithmetic: a sensor with offset o sleeps at
  // o + on + k * period and wakes at o + (k + 1) * period, k >= 0,
  // inside the phase.
  phase_counts_.resize(spec.phases.size());
  for (std::uint32_t pi = 0; pi < spec.phases.size(); ++pi) {
    std::size_t count = script_begin_[pi + 1] - script_begin_[pi];
    if (duty_phase_[pi]) {
      const std::int64_t length_ns = phase_end_ns(pi) - phase_start_ns(pi);
      for (const DutySlot& slot : duty_order_) {
        count += flips_before(length_ns, slot.offset_ns + on_ns_, period_ns_);
        count += flips_before(length_ns, slot.offset_ns + period_ns_,
                              period_ns_);
      }
    }
    phase_counts_[pi] = count;
  }

  // One streaming pass folds the digest in canonical order; it also
  // confirms the counts the engine reserves sequence numbers by.
  std::uint64_t h = kFnvOffsetBasis;
  for (std::uint32_t pi = 0; pi < spec.phases.size(); ++pi) {
    std::size_t walked = 0;
    for (Cursor c = phase_cursor(pi); !c.done(); c.advance(), ++walked) {
      h = fnv1a64(h, static_cast<std::uint64_t>(c->t_ns));
      h = fnv1a64(h, static_cast<std::uint64_t>(c->kind));
      h = fnv1a64(h, c->node);
      h = fnv1a64(h, std::bit_cast<std::uint64_t>(c->pos.x));
      h = fnv1a64(h, std::bit_cast<std::uint64_t>(c->pos.y));
    }
    if (walked != phase_counts_[pi]) {
      throw std::logic_error("Timeline: phase walk disagrees with its count");
    }
  }
  digest_ = h;
}

void Timeline::build_script(const ScenarioSpec& spec, std::uint64_t seed) {
  // Alive set for churn victim selection: every original node except
  // the base station, plus joiners as they arrive.  Maintained in the
  // merged time order of the churn events, across phases, so selection
  // is a pure function of (spec, seed).
  std::vector<net::NodeId> alive;
  alive.reserve(spec.nodes);
  for (net::NodeId id = 1; id < spec.nodes; ++id) alive.push_back(id);
  net::NodeId next_join_id = first_join_id_;
  std::vector<std::size_t> order;

  script_begin_.push_back(0);
  for (std::uint32_t pi = 0; pi < spec.phases.size(); ++pi) {
    const PhaseSpec& phase = spec.phases[pi];
    const std::int64_t start_ns = phase_start_ns(pi);
    const std::int64_t end_ns = phase_end_ns(pi);
    const std::size_t first = script_.size();

    for (const ScriptedEvent& ev : phase.events) {
      script_.push_back(
          Event{start_ns + sim::SimTime::from_seconds(ev.at_s).ns(),
                ev.kind == ScriptedEvent::Kind::kPartition
                    ? EventKind::kPartition
                    : EventKind::kHeal,
                net::kNoNode,
                {ev.x_m, 0.0}});
    }

    if (phase.churn) {
      // Arrival times first (stream order: leave, fail, join), victims
      // and positions second in merged time order — so two replayers
      // agree even when streams interleave.
      support::Xoshiro256 churn_rng = churn_stream(seed, pi);
      const std::size_t churn_first = script_.size();
      churn_arrivals(spec, churn_rng, start_ns, end_ns,
                     [this](std::int64_t t_ns, EventKind kind) {
                       script_.push_back(Event{t_ns, kind});
                     });
      order.resize(script_.size() - churn_first);
      std::iota(order.begin(), order.end(), churn_first);
      std::stable_sort(order.begin(), order.end(),
                       [this](std::size_t a, std::size_t b) {
                         const Event& ea = script_[a];
                         const Event& eb = script_[b];
                         if (ea.t_ns != eb.t_ns) return ea.t_ns < eb.t_ns;
                         return ea.kind < eb.kind;
                       });
      for (const std::size_t i : order) {
        Event& ev = script_[i];
        if (ev.kind == EventKind::kJoin) {
          ev.node = next_join_id++;
          const double x = churn_rng.uniform(0.0, spec.side_m);
          const double y = churn_rng.uniform(0.0, spec.side_m);
          ev.pos = {x, y};
          alive.push_back(ev.node);  // ids ascend, so stays sorted
          ++joins_;
          continue;
        }
        // A departure with nobody left to leave stays unassigned and is
        // dropped below; it draws no random number.
        if (alive.empty()) continue;
        const std::size_t pick = static_cast<std::size_t>(
            churn_rng.uniform_u64(static_cast<std::uint64_t>(alive.size())));
        ev.node = alive[pick];
        alive.erase(alive.begin() + static_cast<std::ptrdiff_t>(pick));
        if (ev.kind == EventKind::kLeave) {
          ++leaves_;
        } else {
          ++fails_;
        }
      }
      // Drop the unassigned departures, the only churn events without
      // a node.
      script_.erase(std::remove_if(script_.begin() +
                                       static_cast<std::ptrdiff_t>(churn_first),
                                   script_.end(),
                                   [](const Event& ev) {
                                     return ev.node == net::kNoNode;
                                   }),
                    script_.end());
    }

    // Stable, so generation order (script in spec order, then churn)
    // breaks full ties, as two walls raised at one instant need.
    std::stable_sort(script_.begin() + static_cast<std::ptrdiff_t>(first),
                     script_.end(), before);
    script_begin_.push_back(script_.size());
  }
}

void Timeline::build_duty(const ScenarioSpec& spec, std::uint64_t seed) {
  duty_phase_.resize(spec.phases.size());
  for (std::uint32_t pi = 0; pi < spec.phases.size(); ++pi) {
    duty_phase_[pi] = duty_cycles(spec, spec.phases[pi]);
  }
  if (std::find(duty_phase_.begin(), duty_phase_.end(), true) ==
      duty_phase_.end()) {
    return;
  }
  period_ns_ = sim::SimTime::from_seconds(spec.duty.period_s).ns();
  on_ns_ = static_cast<std::int64_t>(spec.duty.active_fraction *
                                     static_cast<double>(period_ns_));
  // Original sensors only (joiner lifetimes are churn-managed); the base
  // station never sleeps.  Gone nodes still flip — both replayers treat
  // sleep/wake on a departed node as a no-op.
  duty_order_.reserve(spec.nodes);
  for (net::NodeId id = 1; id < spec.nodes; ++id) {
    const std::uint64_t offset = support::derive_seed(seed, kDutySeedTag ^ id) %
                                 static_cast<std::uint64_t>(period_ns_);
    duty_order_.push_back({static_cast<std::int64_t>(offset), id});
  }
  std::sort(duty_order_.begin(), duty_order_.end(),
            [](const DutySlot& a, const DutySlot& b) {
              if (a.offset_ns != b.offset_ns) return a.offset_ns < b.offset_ns;
              return a.id < b.id;
            });
}

Timeline::Cursor Timeline::phase_cursor(std::uint32_t phase) const {
  return Cursor{*this, phase};
}

Timeline::Cursor::Cursor(const Timeline& timeline, std::uint32_t phase)
    : timeline_(&timeline),
      end_ns_(timeline.phase_end_ns(phase)),
      script_(std::span<const Event>(timeline.script_)
                  .subspan(timeline.script_begin_[phase],
                           timeline.script_begin_[phase + 1] -
                               timeline.script_begin_[phase])) {
  if (timeline.duty_phase_[phase] && !timeline.duty_order_.empty()) {
    const std::int64_t start_ns = timeline.phase_start_ns(phase);
    sleeps_.base_ns = start_ns + timeline.on_ns_;
    sleeps_.head.kind = EventKind::kSleep;
    load(sleeps_);
    wakes_.base_ns = start_ns + timeline.period_ns_;
    wakes_.head.kind = EventKind::kWake;
    load(wakes_);
  }
  done_ = false;
  advance();
}

void Timeline::Cursor::load(DutyWalk& walk) const noexcept {
  const DutySlot& slot = timeline_->duty_order_[walk.slot];
  const std::int64_t t_ns = walk.base_ns + slot.offset_ns;
  // Flip times never decrease along a walk: every offset lies in
  // [0, period), so round r ends before round r + 1 begins.  The first
  // flip past the phase end closes the walk.
  walk.head.t_ns = t_ns < end_ns_ ? t_ns : kDone;
  walk.head.node = slot.id;
}

void Timeline::Cursor::step(DutyWalk& walk) const noexcept {
  if (++walk.slot == timeline_->duty_order_.size()) {
    walk.slot = 0;
    walk.base_ns += timeline_->period_ns_;
  }
  load(walk);
}

void Timeline::Cursor::advance() noexcept {
  // Three-way merge on the canonical key.  A full tie goes to the
  // earlier source — scripted+churn, then sleeps — as generation order
  // once broke it; across sources kinds differ, so none arises.
  const Event* best =
      next_script_ < script_.size() ? &script_[next_script_] : nullptr;
  DutyWalk* from = nullptr;
  for (DutyWalk* walk : {&sleeps_, &wakes_}) {
    if (walk->head.t_ns == kDone) continue;
    if (best == nullptr || before(walk->head, *best)) {
      best = &walk->head;
      from = walk;
    }
  }
  if (best == nullptr) {
    done_ = true;
    return;
  }
  current_ = *best;
  if (from == nullptr) {
    ++next_script_;
  } else {
    step(*from);
  }
}

}  // namespace ldke::scenario
