#include "scenario/timeline.hpp"

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

namespace ldke::scenario {
namespace {

ScenarioSpec dynamic_spec() {
  ScenarioSpec spec;
  spec.nodes = 100;
  spec.side_m = 500.0;
  spec.churn = {2.0, 1.0, 3.0};
  spec.duty = {0.5, 0.6};
  PhaseSpec calm;
  calm.name = "calm";
  calm.duration_s = 1.0;
  PhaseSpec storm;
  storm.name = "storm";
  storm.duration_s = 2.0;
  storm.churn = true;
  storm.duty = true;
  storm.events.push_back({ScriptedEvent::Kind::kPartition, 0.5, 250.0});
  storm.events.push_back({ScriptedEvent::Kind::kHeal, 1.5, 0.0});
  spec.phases = {calm, storm};
  return spec;
}

std::vector<Event> walk(const Timeline& tl, std::uint32_t phase) {
  std::vector<Event> events;
  for (Timeline::Cursor c = tl.phase_cursor(phase); !c.done(); c.advance()) {
    events.push_back(*c);
  }
  return events;
}

std::vector<Event> all_events(const Timeline& tl) {
  std::vector<Event> events;
  for (std::uint32_t pi = 0; pi < tl.phase_count(); ++pi) {
    const std::vector<Event> phase = walk(tl, pi);
    events.insert(events.end(), phase.begin(), phase.end());
  }
  return events;
}

TEST(Timeline, SameSeedExpandsIdentically) {
  const ScenarioSpec spec = dynamic_spec();
  const Timeline a{spec, 77};
  const Timeline b{spec, 77};
  ASSERT_EQ(a.phase_event_count(1), b.phase_event_count(1));
  EXPECT_EQ(a.digest(), b.digest());
  const std::vector<Event> ea = all_events(a);
  const std::vector<Event> eb = all_events(b);
  ASSERT_EQ(ea.size(), eb.size());
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].t_ns, eb[i].t_ns);
    EXPECT_EQ(ea[i].kind, eb[i].kind);
    EXPECT_EQ(ea[i].node, eb[i].node);
  }
  const Timeline c{spec, 78};
  EXPECT_NE(a.digest(), c.digest());
}

TEST(Timeline, EventsAreSortedAndInsidePhaseWindows) {
  const ScenarioSpec spec = dynamic_spec();
  const Timeline tl{spec, 5};
  std::int64_t prev = -1;
  for (std::uint32_t pi = 0; pi < tl.phase_count(); ++pi) {
    const std::vector<Event> events = walk(tl, pi);
    EXPECT_EQ(events.size(), tl.phase_event_count(pi));
    for (const Event& ev : events) {
      EXPECT_GE(ev.t_ns, prev);
      prev = ev.t_ns;
      EXPECT_GE(ev.t_ns, tl.phase_start_ns(pi));
      EXPECT_LT(ev.t_ns, tl.phase_end_ns(pi));
    }
  }
  // The calm phase generated nothing but what its script asked for:
  EXPECT_EQ(tl.phase_event_count(0), 0u);
  EXPECT_TRUE(tl.phase_cursor(0).done());
  EXPECT_GT(tl.phase_event_count(1), 0u);
}

TEST(Timeline, JoinIdsAscendFromNodeCount) {
  const ScenarioSpec spec = dynamic_spec();
  const Timeline tl{spec, 5};
  net::NodeId expected = tl.first_join_id();
  EXPECT_EQ(expected, 100u);
  std::size_t joins = 0;
  for (const Event& ev : all_events(tl)) {
    if (ev.kind != EventKind::kJoin) continue;
    EXPECT_EQ(ev.node, expected++);
    EXPECT_GE(ev.pos.x, 0.0);
    EXPECT_LE(ev.pos.x, spec.side_m);
    ++joins;
  }
  EXPECT_EQ(joins, tl.joins());
}

TEST(Timeline, ChurnVictimsAreUniqueAndNeverTheBaseStation) {
  const ScenarioSpec spec = dynamic_spec();
  const Timeline tl{spec, 5};
  std::set<net::NodeId> departed;
  for (const Event& ev : all_events(tl)) {
    if (ev.kind != EventKind::kLeave && ev.kind != EventKind::kFail) continue;
    EXPECT_NE(ev.node, 0u);  // base station is exempt
    EXPECT_TRUE(departed.insert(ev.node).second)
        << "node " << ev.node << " departed twice";
  }
  EXPECT_EQ(departed.size(), tl.leaves() + tl.fails());
}

TEST(Timeline, DutyEventsAlternatePerNode) {
  ScenarioSpec spec = dynamic_spec();
  spec.churn = {};  // isolate the duty stream
  const Timeline tl{spec, 5};
  std::map<net::NodeId, EventKind> last;
  std::size_t duty_events = 0;
  for (const Event& ev : all_events(tl)) {
    if (ev.kind != EventKind::kSleep && ev.kind != EventKind::kWake) continue;
    ++duty_events;
    const auto it = last.find(ev.node);
    if (it == last.end()) {
      EXPECT_EQ(ev.kind, EventKind::kSleep);  // phases start awake
    } else {
      EXPECT_NE(ev.kind, it->second);
    }
    last[ev.node] = ev.kind;
  }
  // 99 sensors, 2 s phase, 0.5 s period: several cycles each.
  EXPECT_GT(duty_events, 99u);
}

TEST(Timeline, FullyActiveDutyGeneratesNothing) {
  ScenarioSpec spec = dynamic_spec();
  spec.churn = {};
  spec.duty.active_fraction = 1.0;
  const Timeline tl{spec, 5};
  for (const Event& ev : all_events(tl)) {
    EXPECT_NE(ev.kind, EventKind::kSleep);
    EXPECT_NE(ev.kind, EventKind::kWake);
  }
  EXPECT_EQ(tl.phase_event_count(1), 2u);  // the two scripted walls
}

/// Pins the canonical order (time, kind, node, then generation order)
/// on a spec that exercises every tie-break: churn in both phases, duty
/// cycling, and two walls raised at the same instant, which only
/// generation order separates.  The count and digest were recorded from
/// the sorted expansions that preceded the cursor.
TEST(Timeline, CanonicalOrderIsPinned) {
  ScenarioSpec spec = dynamic_spec();
  spec.phases[0].churn = true;
  spec.phases[1].events.push_back(
      {ScriptedEvent::Kind::kPartition, 0.5, 125.0});
  const Timeline tl{spec, 5};
  EXPECT_EQ(all_events(tl).size(), 657u);
  EXPECT_EQ(tl.phase_event_count(0) + tl.phase_event_count(1), 657u);
  EXPECT_EQ(tl.digest(), 0x732c4245413384a7ULL);

  std::vector<double> walls;
  for (const Event& ev : walk(tl, 1)) {
    if (ev.kind == EventKind::kPartition) walls.push_back(ev.pos.x);
  }
  EXPECT_EQ(walls, (std::vector<double>{250.0, 125.0}));
}

TEST(Timeline, RejectsInvalidSpecs) {
  ScenarioSpec spec = dynamic_spec();
  spec.phases.clear();
  EXPECT_THROW((Timeline{spec, 1}), std::invalid_argument);
}

}  // namespace
}  // namespace ldke::scenario
