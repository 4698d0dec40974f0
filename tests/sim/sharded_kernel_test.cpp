/// Unit tests for the conservative sharded kernel: window mechanics,
/// canonical halo merge order, cancellation, stats, and repeat-run
/// determinism.  The integration-level bit-identity guarantee (lanes=N
/// vs lanes=1 on a full protocol run) lives in
/// tests/integration/lane_determinism_test.cpp.

#include "sim/sharded.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <mutex>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "support/thread_pool.hpp"

namespace ldke::sim {
namespace {

using support::ThreadPool;

SimTime ms(double v) { return SimTime::from_seconds(v * 1e-3); }

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

TEST(ShardedKernel, SingleLaneRunsEventsInTimeOrder) {
  ThreadPool pool{2};
  ShardedKernel kernel{1, ms(1), pool};
  std::vector<int> order;
  {
    ShardedKernel::LaneScope scope{0};
    kernel.schedule(ms(30), [&] { order.push_back(3); });
    kernel.schedule(ms(10), [&] { order.push_back(1); });
    kernel.schedule(ms(20), [&] { order.push_back(2); });
  }
  EXPECT_EQ(kernel.run(SimTime::max()), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(kernel.events_executed(), 3u);
  EXPECT_EQ(kernel.pending(), 0u);
}

TEST(ShardedKernel, RunUntilIsInclusiveLikeTheSerialLoop) {
  ThreadPool pool{2};
  ShardedKernel kernel{2, ms(1), pool};
  int ran = 0;
  {
    ShardedKernel::LaneScope scope{0};
    kernel.schedule(ms(5), [&] { ++ran; });
    kernel.schedule(ms(10), [&] { ++ran; });  // exactly at `until`
    kernel.schedule(ms(15), [&] { ++ran; });  // beyond
  }
  EXPECT_EQ(kernel.run(ms(10)), 2u);
  EXPECT_EQ(ran, 2);
  // The clock advanced to `until` on every lane, including idle lane 1.
  {
    ShardedKernel::LaneScope scope{1};
    EXPECT_EQ(kernel.now(), ms(10));
  }
  EXPECT_EQ(kernel.pending(), 1u);
}

TEST(ShardedKernel, LaneScopeRoutesSchedulingAndBindsClock) {
  ThreadPool pool{2};
  ShardedKernel kernel{2, ms(1), pool};
  Log log;
  {
    ShardedKernel::LaneScope scope{1};
    kernel.schedule(ms(2), [&] {
      log.note("lane" + std::to_string(ShardedKernel::current_lane()));
    });
  }
  kernel.run(SimTime::max());
  ASSERT_EQ(log.entries.size(), 1u);
  EXPECT_EQ(log.entries[0], "lane1");
  EXPECT_EQ(kernel.lane_stats(1).events, 1u);
  EXPECT_EQ(kernel.lane_stats(0).events, 0u);
}

TEST(ShardedKernel, CancelIsLaneLocal) {
  ThreadPool pool{2};
  ShardedKernel kernel{2, ms(1), pool};
  int ran = 0;
  EventId id{};
  {
    ShardedKernel::LaneScope scope{1};
    id = kernel.schedule(ms(2), [&] { ++ran; });
    kernel.schedule(ms(3), [&] { ++ran; });
    EXPECT_TRUE(kernel.cancel(id));
    EXPECT_FALSE(kernel.cancel(id));  // already gone
  }
  kernel.run(SimTime::max());
  EXPECT_EQ(ran, 1);
}

TEST(ShardedKernel, HalosMergeInCanonicalOrder) {
  // Three source lanes emit halos into lane 0 with *identical*
  // timestamps; the canonical (when, src, seq) order must hold no
  // matter which thread ran which source lane first.
  ThreadPool pool{4};
  ShardedKernel kernel{4, ms(1), pool};
  Log log;
  const SimTime when = ms(5);
  for (std::uint32_t src = 1; src < 4; ++src) {
    ShardedKernel::LaneScope scope{src};
    // Kick-off events make the source lanes emit from *inside* a
    // window, exercising the outbox path concurrently.
    kernel.schedule(ms(1), [&kernel, &log, src, when] {
      for (int seq = 0; seq < 2; ++seq) {
        kernel.schedule_cross(0, when, [&log, src, seq] {
          log.note("s" + std::to_string(src) + "q" + std::to_string(seq));
        });
      }
    });
  }
  kernel.run(SimTime::max());
  ASSERT_EQ(log.entries.size(), 6u);
  EXPECT_EQ(log.entries,
            (std::vector<std::string>{"s1q0", "s1q1", "s2q0", "s2q1",
                                      "s3q0", "s3q1"}));
  EXPECT_EQ(kernel.halo_packets(), 6u);
  EXPECT_EQ(kernel.lane_stats(0).halo_in, 6u);
}

TEST(ShardedKernel, CrossLanePingPongRespectsLookahead) {
  ThreadPool pool{2};
  ShardedKernel kernel{2, ms(1), pool};
  Log log;
  // A bounces to B, B bounces back — each hop exactly one lookahead
  // ahead, the tightest legal halo.
  std::function<void(std::uint32_t, int)> bounce =
      [&](std::uint32_t to, int hops) {
        if (hops == 0) return;
        kernel.schedule_cross(to, kernel.now() + ms(1), [&, to, hops] {
          log.note("hop" + std::to_string(hops) + "@lane" +
                   std::to_string(ShardedKernel::current_lane()));
          bounce(1 - to, hops - 1);
        });
      };
  {
    ShardedKernel::LaneScope scope{0};
    bounce(1, 4);
  }
  kernel.run(SimTime::max());
  EXPECT_EQ(log.entries,
            (std::vector<std::string>{"hop4@lane1", "hop3@lane0",
                                      "hop2@lane1", "hop1@lane0"}));
  // Each hop needs its own window (events are one lookahead apart).
  EXPECT_GE(kernel.windows(), 4u);
}

TEST(ShardedKernel, RepeatRunsAreIdentical) {
  // Same schedule, two fresh kernels: the observable execution order
  // must match exactly (thread timing must not leak into results).
  auto run_once = [] {
    ThreadPool pool{4};
    ShardedKernel kernel{4, ms(1), pool};
    Log log;
    for (std::uint32_t lane = 0; lane < 4; ++lane) {
      ShardedKernel::LaneScope scope{lane};
      for (int i = 0; i < 8; ++i) {
        kernel.schedule(ms(1 + i), [&log, lane, i] {
          log.note(std::to_string(lane) + ":" + std::to_string(i));
        });
        kernel.schedule_cross((lane + 1) % 4, ms(40 + i), [&log, lane, i] {
          log.note("x" + std::to_string(lane) + ":" + std::to_string(i));
        });
      }
    }
    kernel.run(SimTime::max());
    // Sort per entry-content (the global interleave across lanes is
    // unordered by construction; per-lane order is what determinism
    // promises, and sorting makes the comparison lane-order-stable).
    std::sort(log.entries.begin(), log.entries.end());
    return log.entries;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ShardedKernel, StopRequestEndsRunAtWindowBarrier) {
  ThreadPool pool{2};
  ShardedKernel kernel{2, ms(1), pool};
  int ran = 0;
  {
    ShardedKernel::LaneScope scope{0};
    kernel.schedule(ms(1), [&] {
      ++ran;
      kernel.request_stop();
    });
    kernel.schedule(ms(100), [&] { ++ran; });  // next window: must not run
  }
  kernel.run(SimTime::max());
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(kernel.pending(), 1u);
}

TEST(SimulatorSharding, EnableShardingRoutesThroughKernel) {
  support::ThreadPool pool{2};
  Simulator sim{42};
  sim.enable_sharding(2, ms(1), pool);
  ASSERT_NE(sim.kernel(), nullptr);
  EXPECT_EQ(sim.kernel()->lane_count(), 2u);

  std::vector<int> order;
  {
    ShardedKernel::LaneScope scope{1};
    sim.schedule_in(ms(3), [&] { order.push_back(2); });
    sim.schedule_in(ms(1), [&] { order.push_back(1); });
  }
  EXPECT_EQ(sim.pending_events(), 2u);
  EXPECT_EQ(sim.run(ms(10)), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.events_executed(), 2u);
  EXPECT_EQ(sim.now(), ms(10));
}

TEST(SimulatorSharding, OneLaneIsANoOp) {
  support::ThreadPool pool{2};
  Simulator sim{42};
  sim.enable_sharding(1, ms(1), pool);
  EXPECT_EQ(sim.kernel(), nullptr);  // serial loop *is* the 1-lane case
}

}  // namespace
}  // namespace ldke::sim
