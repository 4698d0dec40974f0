/// The simulator over lane counts.  The `Simulator` checks of the clock,
/// run-until, scheduling, cancellation, event counts and repeat-run
/// identity hold at every lane count, so each runs at 1, 2 and 4 lanes
/// (the events sit in the last lane, so the multi-lane runs take them
/// through the worker windows).  The `ShardedKernel` and
/// `SimulatorSharding` checks compare one lane with more or need more
/// than one: the inline one-lane loop, run-until against the serial
/// loop, lane-scope routing, lane-local cancel, canonical halo merge
/// order and cross-lane traffic.  The integration-level bit-identity guarantee
/// (lanes = N vs lanes = 1 on a full protocol run) lives in
/// tests/integration/lane_determinism_test.cpp.

#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace ldke::sim {
namespace {

constexpr std::size_t kLaneCounts[] = {1, 2, 4};

SimTime ms(double v) { return SimTime::from_seconds(v * 1e-3); }

std::string lanes_trace(std::size_t lanes) {
  return "lanes=" + std::to_string(lanes);
}

/// The highest lane: lane 0 at one lane, a worker-run lane otherwise.
std::uint32_t last_lane(const Simulator& sim) {
  return static_cast<std::uint32_t>(sim.lane_count() - 1);
}

/// Execution log shared by every lane; the mutex orders concurrent
/// appends (the *content* per lane is what the tests assert on).
struct Log {
  std::mutex mutex;
  std::vector<std::string> entries;

  void note(std::string entry) {
    const std::lock_guard<std::mutex> lock(mutex);
    entries.push_back(std::move(entry));
  }
};

TEST(SimTime, ConversionsAreConsistent) {
  EXPECT_EQ(SimTime::from_seconds(1.5).ns(), 1'500'000'000);
  EXPECT_EQ(SimTime::from_ms(2.0).ns(), 2'000'000);
  EXPECT_EQ(SimTime::from_us(3.0).ns(), 3'000);
  EXPECT_DOUBLE_EQ(SimTime::from_seconds(0.25).seconds(), 0.25);
  EXPECT_DOUBLE_EQ(SimTime::from_ms(1.0).milliseconds(), 1.0);
}

TEST(SimTime, ArithmeticAndComparison) {
  const SimTime a = SimTime::from_ms(10);
  const SimTime b = SimTime::from_ms(3);
  EXPECT_EQ((a + b).ns(), SimTime::from_ms(13).ns());
  EXPECT_EQ((a - b).ns(), SimTime::from_ms(7).ns());
  EXPECT_LT(b, a);
  EXPECT_GT(a, SimTime::zero());
}

TEST(Simulator, StartsAtZero) {
  for (const std::size_t lanes : kLaneCounts) {
    SCOPED_TRACE(lanes_trace(lanes));
    Simulator sim{1, lanes, ms(1)};
    EXPECT_EQ(sim.lane_count(), lanes);
    EXPECT_EQ(sim.now(), SimTime::zero());
    EXPECT_EQ(sim.events_executed(), 0u);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

TEST(Simulator, ClockAdvancesWithEvents) {
  // Scheduled out of order, the events run in time order, each seeing
  // now() == its own time.
  for (const std::size_t lanes : kLaneCounts) {
    SCOPED_TRACE(lanes_trace(lanes));
    Simulator sim{1, lanes, ms(1)};
    std::vector<SimTime> seen;
    {
      const Simulator::LaneScope scope{last_lane(sim)};
      for (const double t : {30.0, 10.0, 20.0}) {
        sim.schedule_in(ms(t), [&] { seen.push_back(sim.now()); });
      }
    }
    EXPECT_EQ(sim.run(), 3u);
    EXPECT_EQ(seen, (std::vector<SimTime>{ms(10), ms(20), ms(30)}));
    // Every lane commits the last event's time, the idle ones included.
    EXPECT_EQ(sim.now(), ms(30));
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  for (const std::size_t lanes : kLaneCounts) {
    SCOPED_TRACE(lanes_trace(lanes));
    Simulator sim{1, lanes, ms(1)};
    std::atomic<int> ran{0};
    {
      const Simulator::LaneScope scope{last_lane(sim)};
      sim.schedule_in(ms(1), [&] { ++ran; });
      sim.schedule_in(ms(10), [&] { ++ran; });  // exactly at `until`
      sim.schedule_in(ms(100), [&] { ++ran; });
    }
    EXPECT_EQ(sim.run(ms(10)), 2u);
    EXPECT_EQ(ran, 2);
    // Every lane's clock stands at `until`, the idle ones included.
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      const Simulator::LaneScope scope{lane};
      EXPECT_EQ(sim.now(), ms(10));
    }
    EXPECT_EQ(sim.pending_events(), 1u);
    // The far event still fires on the next run.
    sim.run();
    EXPECT_EQ(ran, 3);
  }
}

TEST(Simulator, ScheduleInIsRelativeToNow) {
  for (const std::size_t lanes : kLaneCounts) {
    SCOPED_TRACE(lanes_trace(lanes));
    Simulator sim{1, lanes, ms(1)};
    SimTime inner = SimTime::zero();
    {
      const Simulator::LaneScope scope{last_lane(sim)};
      sim.schedule_in(SimTime::from_ms(10), [&] {
        sim.schedule_in(SimTime::from_ms(5), [&] { inner = sim.now(); });
      });
    }
    sim.run();
    EXPECT_EQ(inner, SimTime::from_ms(15));
  }
}

TEST(Simulator, CancelThroughSimulator) {
  // Cancellation is lane-local: a node cancels its own timers from its
  // own lane.
  for (const std::size_t lanes : kLaneCounts) {
    SCOPED_TRACE(lanes_trace(lanes));
    Simulator sim{1, lanes, ms(1)};
    std::atomic<int> ran{0};
    {
      const Simulator::LaneScope scope{last_lane(sim)};
      const EventId id = sim.schedule_in(ms(2), [&] { ++ran; });
      sim.schedule_in(ms(3), [&] { ++ran; });
      EXPECT_TRUE(sim.cancel(id));
      EXPECT_FALSE(sim.cancel(id));  // already gone
    }
    sim.run();
    EXPECT_EQ(ran, 1);
  }
}

TEST(Simulator, RngIsSeedDetermined) {
  Simulator a{42}, b{42}, c{43};
  EXPECT_EQ(a.rng().next(), b.rng().next());
  Simulator a2{42};
  EXPECT_NE(a2.rng().next(), c.rng().next());
  // Outside a window every lane count draws the trial stream.
  for (const std::size_t lanes : kLaneCounts) {
    SCOPED_TRACE(lanes_trace(lanes));
    Simulator one{42};
    Simulator more{42, lanes, ms(1)};
    EXPECT_EQ(more.rng().next(), one.rng().next());
  }
}

TEST(Simulator, EventsExecutedAccumulates) {
  for (const std::size_t lanes : kLaneCounts) {
    SCOPED_TRACE(lanes_trace(lanes));
    Simulator sim{1, lanes, ms(1)};
    for (int i = 0; i < 5; ++i) {
      const Simulator::LaneScope scope{static_cast<std::uint32_t>(i % lanes)};
      sim.schedule_in(SimTime::from_ms(i), [] {});
    }
    EXPECT_EQ(sim.pending_events(), 5u);
    sim.run();
    EXPECT_EQ(sim.events_executed(), 5u);
    std::uint64_t per_lane = 0;
    for (std::size_t lane = 0; lane < lanes; ++lane) {
      per_lane += sim.lane_stats(lane).events;
    }
    EXPECT_EQ(per_lane, 5u);
  }
}

TEST(Simulator, RepeatRunsAreIdentical) {
  // Same schedule, two fresh simulators: the observable execution order
  // and every draw from rng() inside an event must match exactly
  // (thread timing must not leak into results).
  auto run_once = [](std::size_t lanes) {
    Simulator sim{9, lanes, ms(1)};
    Log log;
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      const Simulator::LaneScope scope{lane};
      for (int i = 0; i < 8; ++i) {
        sim.schedule_at(ms(1 + i), [&sim, &log, lane, i] {
          log.note(std::to_string(lane) + ":" + std::to_string(i) + ":" +
                   std::to_string(sim.rng().next() % 1000));
        });
        if (lanes == 1) continue;
        sim.schedule_cross((lane + 1) % lanes, ms(40 + i), [&log, lane, i] {
          log.note("x" + std::to_string(lane) + ":" + std::to_string(i));
        });
      }
    }
    sim.run();
    // Sort per entry-content (the global interleave across lanes is
    // unordered by construction; per-lane order is what determinism
    // promises, and sorting makes the comparison lane-order-stable).
    std::sort(log.entries.begin(), log.entries.end());
    return log.entries;
  };
  for (const std::size_t lanes : kLaneCounts) {
    SCOPED_TRACE(lanes_trace(lanes));
    const std::vector<std::string> first = run_once(lanes);
    EXPECT_EQ(first.size(), lanes == 1 ? 8u : 16u * lanes);
    EXPECT_EQ(run_once(lanes), first);
  }
}

TEST(Simulator, ReservedNumberOrdersAnEqualTimeEvent) {
  Simulator sim;
  std::vector<int> order;
  const std::uint64_t base = sim.reserve_sequence(1);
  sim.schedule_at(SimTime::from_ms(2), [&] { order.push_back(2); });
  sim.schedule_reserved(SimTime::from_ms(2), base,
                        [&] { order.push_back(1); });
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), SimTime::from_ms(2));
}

TEST(Simulator, ReservedNumbersNeedTheSerialLoop) {
  // Lanes number their events independently: a reserved tie means
  // nothing across them, so more than one lane refuses.
  for (const std::size_t lanes : {2ul, 4ul}) {
    SCOPED_TRACE(lanes_trace(lanes));
    Simulator sim{1, lanes, ms(1)};
    EXPECT_THROW((void)sim.reserve_sequence(1), std::logic_error);
    EXPECT_THROW(sim.schedule_reserved(SimTime::from_ms(1), 0, [] {}),
                 std::logic_error);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

TEST(ShardedKernel, SingleLaneRunsEventsInTimeOrder) {
  // One lane is the serial loop: its events run inline on the calling
  // thread, in time order, without a lookahead window.
  Simulator sim{1, 1, ms(1)};
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  bool inline_only = true;
  for (const int step : {3, 1, 2}) {
    sim.schedule_in(ms(10 * step), [&, step] {
      order.push_back(step);
      inline_only = inline_only && std::this_thread::get_id() == caller;
    });
  }
  EXPECT_EQ(sim.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(inline_only);
  EXPECT_EQ(sim.events_executed(), 3u);
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.windows(), 0u);
}

TEST(ShardedKernel, RunUntilIsInclusiveLikeTheSerialLoop) {
  // The same schedule, spread over both lanes of a two-lane run and
  // held in the one lane of a serial run, stops at the same point.
  struct Outcome {
    std::uint64_t executed;
    int ran;
    std::size_t pending;
  };
  auto run_to_deadline = [](std::size_t lanes) {
    Simulator sim{1, lanes, ms(1)};
    std::atomic<int> ran{0};
    for (std::uint32_t lane = 0; lane < 2; ++lane) {
      const Simulator::LaneScope scope{
          static_cast<std::uint32_t>(lane % lanes)};
      sim.schedule_in(ms(5 + lane), [&] { ++ran; });
      sim.schedule_in(ms(10), [&] { ++ran; });  // exactly at `until`
      sim.schedule_in(ms(15), [&] { ++ran; });  // beyond
    }
    const std::uint64_t executed = sim.run(ms(10));
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      const Simulator::LaneScope scope{lane};
      EXPECT_EQ(sim.now(), ms(10)) << "lane " << lane;
    }
    return Outcome{executed, ran.load(), sim.pending_events()};
  };
  const Outcome serial = run_to_deadline(1);
  const Outcome sharded = run_to_deadline(2);
  EXPECT_EQ(serial.executed, 4u);
  EXPECT_EQ(serial.ran, 4);
  EXPECT_EQ(serial.pending, 2u);
  EXPECT_EQ(sharded.executed, serial.executed);
  EXPECT_EQ(sharded.ran, serial.ran);
  EXPECT_EQ(sharded.pending, serial.pending);
}

TEST(ShardedKernel, LaneScopeRoutesSchedulingAndBindsClock) {
  Simulator sim{42, 2, ms(1)};
  Log log;
  {
    const Simulator::LaneScope scope{1};
    sim.schedule_in(ms(2), [&] {
      log.note("lane" + std::to_string(Simulator::current_lane()) + "@" +
               std::to_string(sim.now().ns()));
    });
  }
  sim.run();
  ASSERT_EQ(log.entries.size(), 1u);
  EXPECT_EQ(log.entries[0], "lane1@2000000");
  EXPECT_EQ(sim.lane_stats(1).events, 1u);
  EXPECT_EQ(sim.lane_stats(0).events, 0u);
}

TEST(ShardedKernel, CancelIsLaneLocal) {
  // Each lane numbers its own events, so the first event of lane 0 and
  // that of lane 1 may carry the same id; cancelling from lane 1 must
  // leave lane 0's event alone.
  Simulator sim{1, 2, ms(1)};
  std::atomic<int> lane0_ran{0};
  std::atomic<int> lane1_ran{0};
  {
    const Simulator::LaneScope scope{0};
    sim.schedule_in(ms(2), [&] { ++lane0_ran; });
  }
  {
    const Simulator::LaneScope scope{1};
    const EventId id = sim.schedule_in(ms(2), [&] { ++lane1_ran; });
    sim.schedule_in(ms(3), [&] { ++lane1_ran; });
    EXPECT_TRUE(sim.cancel(id));
    EXPECT_FALSE(sim.cancel(id));  // already gone
  }
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.run();
  EXPECT_EQ(lane0_ran, 1);
  EXPECT_EQ(lane1_ran, 1);
}

TEST(SimulatorSharding, EnableShardingRoutesThroughKernel) {
  // Sharding is enabled by the lane count the simulator is built with;
  // scheduling, run(until), the event count and the clock then go
  // through the lane windows.
  Simulator sim{42, 2, ms(1)};
  EXPECT_EQ(sim.lane_count(), 2u);
  std::vector<int> order;
  {
    const Simulator::LaneScope scope{1};
    sim.schedule_in(ms(3), [&] { order.push_back(2); });
    sim.schedule_in(ms(1), [&] { order.push_back(1); });
  }
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.run(ms(10)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.now(), ms(10));
  EXPECT_GE(sim.windows(), 1u);
}

TEST(ShardedKernel, HalosMergeInCanonicalOrder) {
  // Three source lanes emit halos into lane 0 with *identical*
  // timestamps; the canonical (when, src, seq) order must hold no
  // matter which thread ran which source lane first.
  Simulator sim{1, 4, ms(1)};
  Log log;
  const SimTime when = ms(5);
  for (std::uint32_t src = 1; src < 4; ++src) {
    const Simulator::LaneScope scope{src};
    // Kick-off events make the source lanes emit from *inside* a
    // window, exercising the outbox path concurrently.
    sim.schedule_at(ms(1), [&sim, &log, src, when] {
      for (int seq = 0; seq < 2; ++seq) {
        sim.schedule_cross(0, when, [&log, src, seq] {
          log.note("s" + std::to_string(src) + "q" + std::to_string(seq));
        });
      }
    });
  }
  sim.run();
  ASSERT_EQ(log.entries.size(), 6u);
  EXPECT_EQ(log.entries,
            (std::vector<std::string>{"s1q0", "s1q1", "s2q0", "s2q1",
                                      "s3q0", "s3q1"}));
  EXPECT_EQ(sim.halo_packets(), 6u);
  EXPECT_EQ(sim.lane_stats(0).halo_in, 6u);
}

TEST(ShardedKernel, CrossLanePingPongRespectsLookahead) {
  Simulator sim{1, 2, ms(1)};
  Log log;
  // A bounces to B, B bounces back — each hop exactly one lookahead
  // ahead, the tightest legal halo.
  std::function<void(std::uint32_t, int)> bounce =
      [&](std::uint32_t to, int hops) {
        if (hops == 0) return;
        sim.schedule_cross(to, sim.now() + ms(1), [&, to, hops] {
          log.note("hop" + std::to_string(hops) + "@lane" +
                   std::to_string(Simulator::current_lane()));
          bounce(1 - to, hops - 1);
        });
      };
  {
    const Simulator::LaneScope scope{0};
    bounce(1, 4);
  }
  sim.run();
  EXPECT_EQ(log.entries,
            (std::vector<std::string>{"hop4@lane1", "hop3@lane0",
                                      "hop2@lane1", "hop1@lane0"}));
  // Each hop needs its own window (events are one lookahead apart).
  EXPECT_GE(sim.windows(), 4u);
}

}  // namespace
}  // namespace ldke::sim
