/// Differential test of the lazy timeline cursor against the reference
/// expansion in timeline_oracle.cpp, over randomly composed fixed-seed
/// specs.  Every event, every per-phase count (the block of sequence
/// numbers the engine reserves), the digest and the churn tallies must
/// agree.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "scenario/timeline.hpp"
#include "sim/time.hpp"
#include "support/rng.hpp"
#include "timeline_oracle.hpp"

namespace ldke::scenario {
namespace {

constexpr std::size_t kSpecs = 240;

/// Corner cases the spec generator must reach, counted over the run.
struct Coverage {
  std::size_t period_not_dividing_phase = 0;
  std::size_t flip_on_phase_end = 0;
  std::size_t zero_on_time = 0;
  std::size_t churn_in_several_phases = 0;
  std::size_t network_emptied = 0;
  std::size_t simultaneous_walls = 0;
};

/// A random spec.  A third duty-cycle at a period of a few nanoseconds
/// over sub-microsecond phases, so every offset residue is taken: flips
/// land on phase ends and on the nanosecond-grid scripted walls.  The
/// rest churn and duty-cycle at second scale over up to four phases,
/// some on deployments small enough for churn to empty.
ScenarioSpec random_spec(support::Xoshiro256& rng) {
  ScenarioSpec spec;
  spec.side_m = 400.0;
  const bool fine = rng.uniform_u64(3) == 0;
  const bool tiny = !fine && rng.uniform_u64(4) == 0;
  spec.nodes = 2 + rng.uniform_u64(fine ? 40 : tiny ? 6 : 120);
  spec.churn.leave_rate_hz = rng.uniform(0.0, tiny ? 12.0 : 4.0);
  spec.churn.fail_rate_hz = rng.uniform(0.0, 3.0);
  spec.churn.join_rate_hz =
      rng.uniform_u64(5) == 0 ? 0.0 : rng.uniform(0.0, tiny ? 1.0 : 4.0);
  if (fine) {
    spec.duty.period_s = static_cast<double>(3 + rng.uniform_u64(12)) * 1e-9;
  } else {
    constexpr double kPeriods[] = {0.1, 0.25, 0.3, 0.7, 1.3};
    spec.duty.period_s = kPeriods[rng.uniform_u64(5)];
  }
  switch (rng.uniform_u64(5)) {
    case 0:
      spec.duty.active_fraction = 1e-12;  // on-time truncates to 0 ns
      break;
    case 1:
      spec.duty.active_fraction = 1.0;
      break;
    default:
      spec.duty.active_fraction = rng.uniform(0.05, 0.95);
  }

  const std::size_t phases = 1 + rng.uniform_u64(4);
  for (std::size_t i = 0; i < phases; ++i) {
    PhaseSpec phase;
    phase.name = std::to_string(i);
    // Scripted instants sit at least two grid steps before the end, so
    // truncation to nanoseconds keeps them inside the phase.
    std::uint64_t steps = 0;
    double step_s = 0.0;
    if (fine) {
      steps = 20 + rng.uniform_u64(300);
      step_s = 1e-9;
    } else {
      steps = 2 + rng.uniform_u64(20);
      step_s = 0.1;
    }
    phase.duration_s = static_cast<double>(steps) * step_s;
    phase.churn = rng.uniform_u64(2) == 0;
    phase.duty = rng.uniform_u64(4) != 0;
    const std::uint64_t walls = rng.uniform_u64(3);
    for (std::uint64_t w = 0; w < walls; ++w) {
      const double at_s =
          static_cast<double>(rng.uniform_u64(steps - 1)) * step_s;
      const auto kind = rng.uniform_u64(3) == 0
                            ? ScriptedEvent::Kind::kHeal
                            : ScriptedEvent::Kind::kPartition;
      phase.events.push_back(
          {kind, at_s, rng.uniform(1.0, spec.side_m - 1.0)});
    }
    if (!phase.events.empty() && rng.uniform_u64(3) == 0) {
      phase.events.push_back({ScriptedEvent::Kind::kPartition,
                              phase.events.front().at_s,
                              rng.uniform(1.0, spec.side_m - 1.0)});
    }
    spec.phases.push_back(std::move(phase));
  }
  return spec;
}

void tally(const ScenarioSpec& spec, std::uint64_t seed,
           const oracle::ExpandedTimeline& ref, Coverage& cov) {
  std::size_t churning = 0;
  bool simultaneous = false;
  for (const PhaseSpec& phase : spec.phases) {
    churning += phase.churn ? 1 : 0;
    for (std::size_t a = 0; a < phase.events.size(); ++a) {
      for (std::size_t b = a + 1; b < phase.events.size(); ++b) {
        simultaneous |= phase.events[a].at_s == phase.events[b].at_s &&
                        phase.events[a].kind == phase.events[b].kind;
      }
    }
  }
  cov.churn_in_several_phases += churning >= 2 ? 1 : 0;
  cov.simultaneous_walls += simultaneous ? 1 : 0;
  cov.network_emptied += ref.dropped_departures > 0 ? 1 : 0;

  if (spec.duty.active_fraction >= 1.0) return;
  const std::int64_t period =
      sim::SimTime::from_seconds(spec.duty.period_s).ns();
  const auto on = static_cast<std::int64_t>(spec.duty.active_fraction *
                                            static_cast<double>(period));
  bool not_dividing = false;
  bool on_end = false;
  for (const PhaseSpec& phase : spec.phases) {
    const std::int64_t length =
        sim::SimTime::from_seconds(phase.duration_s).ns();
    if (phase.duty) {
      not_dividing |= length % period != 0;
      for (net::NodeId id = 1; id < spec.nodes; ++id) {
        const std::int64_t o = oracle::duty_offset_ns(seed, id, period);
        on_end |= length - o - on >= 0 && (length - o - on) % period == 0;
        on_end |= length - o >= period && (length - o) % period == 0;
      }
    }
  }
  cov.period_not_dividing_phase += not_dividing ? 1 : 0;
  cov.flip_on_phase_end += on_end ? 1 : 0;
  const bool duty = std::any_of(spec.phases.begin(), spec.phases.end(),
                                [](const PhaseSpec& p) { return p.duty; });
  cov.zero_on_time += duty && on == 0 ? 1 : 0;
}

::testing::AssertionResult same_timeline(const Timeline& tl,
                                         const oracle::ExpandedTimeline& ref) {
  if (tl.digest() != ref.digest) {
    return ::testing::AssertionFailure() << "digest differs";
  }
  if (tl.joins() != ref.joins || tl.leaves() != ref.leaves ||
      tl.fails() != ref.fails || tl.first_join_id() != ref.first_join_id) {
    return ::testing::AssertionFailure() << "churn tallies differ";
  }
  if (tl.phase_count() != ref.phase_counts.size()) {
    return ::testing::AssertionFailure() << "phase count differs";
  }
  std::size_t k = 0;
  for (std::uint32_t pi = 0; pi < tl.phase_count(); ++pi) {
    if (tl.phase_event_count(pi) != ref.phase_counts[pi]) {
      return ::testing::AssertionFailure()
             << "phase " << pi << " counts " << tl.phase_event_count(pi)
             << " events, the oracle " << ref.phase_counts[pi];
    }
    for (Timeline::Cursor c = tl.phase_cursor(pi); !c.done();
         c.advance(), ++k) {
      if (k >= ref.events.size()) {
        return ::testing::AssertionFailure() << "cursor runs past the oracle";
      }
      const oracle::PhasedEvent& want = ref.events[k];
      const Event& got = *c;
      if (want.phase != pi || want.event.t_ns != got.t_ns ||
          want.event.kind != got.kind || want.event.node != got.node ||
          std::bit_cast<std::uint64_t>(want.event.pos.x) !=
              std::bit_cast<std::uint64_t>(got.pos.x) ||
          std::bit_cast<std::uint64_t>(want.event.pos.y) !=
              std::bit_cast<std::uint64_t>(got.pos.y)) {
        return ::testing::AssertionFailure()
               << "event " << k << " (phase " << pi << "): cursor t="
               << got.t_ns << " kind=" << static_cast<int>(got.kind)
               << " node=" << got.node << ", oracle phase " << want.phase
               << " t=" << want.event.t_ns
               << " kind=" << static_cast<int>(want.event.kind)
               << " node=" << want.event.node;
      }
    }
  }
  if (k != ref.events.size()) {
    return ::testing::AssertionFailure()
           << "cursor yields " << k << " events, the oracle "
           << ref.events.size();
  }
  return ::testing::AssertionSuccess();
}

TEST(TimelineDifferential, CursorMatchesTheSortedExpansion) {
  support::Xoshiro256 rng{0x7131e11e};
  Coverage cov;
  for (std::size_t i = 0; i < kSpecs; ++i) {
    const ScenarioSpec spec = random_spec(rng);
    const std::uint64_t seed = rng.next();
    const oracle::ExpandedTimeline ref = oracle::expand(spec, seed);
    const Timeline tl{spec, seed};
    ASSERT_TRUE(same_timeline(tl, ref))
        << "spec " << i << ", seed " << seed << ":\n"
        << spec.to_json().dump();
    tally(spec, seed, ref, cov);
  }
  EXPECT_GE(cov.period_not_dividing_phase, 10u);
  EXPECT_GE(cov.flip_on_phase_end, 10u);
  EXPECT_GE(cov.zero_on_time, 10u);
  EXPECT_GE(cov.churn_in_several_phases, 10u);
  EXPECT_GE(cov.network_emptied, 10u);
  EXPECT_GE(cov.simultaneous_walls, 10u);
}

/// A departure drawn after every sensor has gone is dropped: it is not
/// an event, draws no random number and counts nowhere.
TEST(TimelineDifferential, EmptiedNetworkDropsLeftoverDepartures) {
  ScenarioSpec spec;
  spec.nodes = 6;
  spec.side_m = 200.0;
  spec.churn.leave_rate_hz = 8.0;
  PhaseSpec phase;
  phase.name = "drain";
  phase.duration_s = 2.0;
  phase.churn = true;
  spec.phases = {phase};
  const Timeline tl{spec, 1};
  const oracle::ExpandedTimeline ref = oracle::expand(spec, 1);
  ASSERT_GT(ref.dropped_departures, 0u);
  EXPECT_TRUE(same_timeline(tl, ref));
  EXPECT_EQ(tl.leaves(), 5u);
  EXPECT_EQ(tl.phase_event_count(0), 5u);
  for (Timeline::Cursor c = tl.phase_cursor(0); !c.done(); c.advance()) {
    EXPECT_EQ(c->kind, EventKind::kLeave);
  }
}

}  // namespace
}  // namespace ldke::scenario
