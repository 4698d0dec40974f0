#include "sim/scheduler.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

namespace ldke::sim {
namespace {

TEST(Scheduler, EmptyInitially) {
  Scheduler s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.pending(), 0u);
}

TEST(Scheduler, RunsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(SimTime::from_ms(30), [&] { order.push_back(3); });
  s.schedule(SimTime::from_ms(10), [&] { order.push_back(1); });
  s.schedule(SimTime::from_ms(20), [&] { order.push_back(2); });
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, EqualTimesRunInScheduleOrder) {
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::from_ms(5);
  for (int i = 0; i < 10; ++i) {
    s.schedule(t, [&order, i] { order.push_back(i); });
  }
  while (!s.empty()) s.run_next();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, RunNextReturnsEventTime) {
  Scheduler s;
  s.schedule(SimTime::from_ms(7), [] {});
  EXPECT_EQ(s.run_next(), SimTime::from_ms(7));
}

TEST(Scheduler, NextTimePeeksWithoutRunning) {
  Scheduler s;
  s.schedule(SimTime::from_ms(9), [] {});
  EXPECT_EQ(s.next_time(), SimTime::from_ms(9));
  EXPECT_EQ(s.pending(), 1u);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  const EventId id = s.schedule(SimTime::from_ms(1), [&] { ran = true; });
  EXPECT_TRUE(s.cancel(id));
  EXPECT_TRUE(s.empty());
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelTwiceReturnsFalse) {
  Scheduler s;
  const EventId id = s.schedule(SimTime::from_ms(1), [] {});
  EXPECT_TRUE(s.cancel(id));
  EXPECT_FALSE(s.cancel(id));
}

TEST(Scheduler, CancelAfterRunReturnsFalse) {
  Scheduler s;
  const EventId id = s.schedule(SimTime::from_ms(1), [] {});
  s.run_next();
  EXPECT_FALSE(s.cancel(id));
}

TEST(Scheduler, CancelInvalidIdReturnsFalse) {
  Scheduler s;
  EXPECT_FALSE(s.cancel(kInvalidEventId));
  EXPECT_FALSE(s.cancel(9999));
}

TEST(Scheduler, CancelledEventSkippedAmongOthers) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(SimTime::from_ms(1), [&] { order.push_back(1); });
  const EventId id = s.schedule(SimTime::from_ms(2), [&] { order.push_back(2); });
  s.schedule(SimTime::from_ms(3), [&] { order.push_back(3); });
  s.cancel(id);
  EXPECT_EQ(s.pending(), 2u);
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Scheduler, EventsMayScheduleMoreEvents) {
  Scheduler s;
  std::vector<int> order;
  s.schedule(SimTime::from_ms(1), [&] {
    order.push_back(1);
    s.schedule(SimTime::from_ms(2), [&] { order.push_back(2); });
  });
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, StaleIdStaysDeadAfterSlotReuse) {
  Scheduler s;
  // Run an event so its slot goes back on the free list, then schedule a
  // new one that reuses the slot.  The old id must not cancel the new
  // event (generations differ).
  const EventId old_id = s.schedule(SimTime::from_ms(1), [] {});
  s.run_next();
  bool ran = false;
  const EventId new_id = s.schedule(SimTime::from_ms(2), [&] { ran = true; });
  EXPECT_NE(old_id, new_id);
  EXPECT_FALSE(s.cancel(old_id));
  EXPECT_EQ(s.pending(), 1u);
  s.run_next();
  EXPECT_TRUE(ran);
}

TEST(Scheduler, ActionMayCancelAnotherPendingEvent) {
  Scheduler s;
  bool second_ran = false;
  EventId second = kInvalidEventId;
  s.schedule(SimTime::from_ms(1), [&] { EXPECT_TRUE(s.cancel(second)); });
  second = s.schedule(SimTime::from_ms(2), [&] { second_ran = true; });
  while (!s.empty()) s.run_next();
  EXPECT_FALSE(second_ran);
}

TEST(Scheduler, RunningEventCannotCancelItself) {
  Scheduler s;
  EventId self = kInvalidEventId;
  bool cancel_result = true;
  self = s.schedule(SimTime::from_ms(1),
                    [&] { cancel_result = s.cancel(self); });
  s.run_next();
  EXPECT_FALSE(cancel_result);  // already retired when the action runs
  EXPECT_TRUE(s.empty());
}

TEST(Scheduler, ChurnKeepsPendingCountConsistent) {
  Scheduler s;
  std::size_t executed = 0;
  // Heavy schedule/cancel churn recycling a small number of slots.
  for (int round = 0; round < 200; ++round) {
    const EventId keep =
        s.schedule(SimTime::from_ms(round), [&] { ++executed; });
    const EventId drop = s.schedule(SimTime::from_ms(round), [&] { ++executed; });
    EXPECT_TRUE(s.cancel(drop));
    EXPECT_FALSE(s.cancel(drop));
    (void)keep;
  }
  EXPECT_EQ(s.pending(), 200u);
  while (!s.empty()) s.run_next();
  EXPECT_EQ(executed, 200u);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  std::vector<std::int64_t> times;
  // Deterministic pseudo-shuffled times.
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t = (i * 7919) % 2003;
    s.schedule(SimTime::from_ns(t), [&times, t] { times.push_back(t); });
  }
  while (!s.empty()) s.run_next();
  ASSERT_EQ(times.size(), 2000u);
  for (std::size_t i = 1; i < times.size(); ++i) {
    EXPECT_LE(times[i - 1], times[i]);
  }
}

// --- Reserved sequence numbers ----------------------------------------------

TEST(Scheduler, ReservedEventTiesByItsReservedNumber) {
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::from_ms(5);
  s.schedule(t, [&] { order.push_back(0); });        // number 0
  const std::uint64_t base = s.reserve_sequence(2);  // numbers 1 and 2
  s.schedule(t, [&] { order.push_back(3); });        // number 3
  // Pushed after both plain events, yet each runs after the smaller
  // number and before the larger one.
  s.schedule_reserved(t, base + 1, [&] { order.push_back(2); });
  s.schedule_reserved(t, base, [&] { order.push_back(1); });
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Scheduler, ReservedChainRunsWhereAnUpfrontScheduleWould) {
  // Three equal-time events streamed one at a time: each pushes its
  // successor under the next reserved number while it runs.  A plain
  // event scheduled after the reservation still runs after all three,
  // and at most two events are ever pending.
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::from_ms(5);
  const std::uint64_t base = s.reserve_sequence(3);
  s.schedule(t, [&] { order.push_back(9); });
  std::function<void(int)> stream = [&](int i) {
    s.schedule_reserved(t, base + static_cast<std::uint64_t>(i), [&, i] {
      if (i + 1 < 3) stream(i + 1);
      order.push_back(i);
    });
  };
  stream(0);
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
  EXPECT_EQ(s.high_water(), 2u);
}

TEST(Scheduler, ScheduleNumberingContinuesAfterAReservedBlock) {
  Scheduler s;
  std::vector<int> order;
  const SimTime t = SimTime::from_ms(1);
  EXPECT_EQ(s.reserve_sequence(0), 0u);  // reserving nothing is a no-op
  s.schedule(t, [&] { order.push_back(0); });  // number 0
  EXPECT_EQ(s.reserve_sequence(4), 1u);        // numbers 1..4
  s.schedule(t, [&] { order.push_back(5); });  // number 5
  EXPECT_EQ(s.reserve_sequence(0), 6u);
  EXPECT_EQ(s.reserve_sequence(1), 6u);
  // The block's last number sits between the two plain events.
  s.schedule_reserved(t, 4, [&] { order.push_back(4); });
  while (!s.empty()) s.run_next();
  EXPECT_EQ(order, (std::vector<int>{0, 4, 5}));
}

TEST(Scheduler, ReservedEventsCancelAndGoStaleLikeAnyOther) {
  Scheduler s;
  const std::uint64_t base = s.reserve_sequence(2);
  bool ran = false;
  const EventId first =
      s.schedule_reserved(SimTime::from_ms(1), base, [&] { ran = true; });
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_TRUE(s.cancel(first));
  EXPECT_FALSE(s.cancel(first));
  EXPECT_TRUE(s.empty());
  // The next reserved event reuses the slot under a new generation: the
  // old id must not cancel it.
  const EventId second =
      s.schedule_reserved(SimTime::from_ms(2), base + 1, [&] { ran = true; });
  EXPECT_NE(first, second);
  EXPECT_FALSE(s.cancel(first));
  EXPECT_EQ(s.pending(), 1u);
  EXPECT_EQ(s.run_next(), SimTime::from_ms(2));
  EXPECT_TRUE(ran);
  EXPECT_FALSE(s.cancel(second));  // already run
}

// --- EventFn: the erased callable the scheduler slab stores ---------------

TEST(EventFn, DefaultAndNullptrAreEmpty) {
  EventFn empty;
  EventFn null_constructed(nullptr);
  EXPECT_FALSE(empty);
  EXPECT_FALSE(null_constructed);
}

TEST(EventFn, InvokesSmallCaptureInline) {
  int hits = 0;
  EventFn fn([&hits] { ++hits; });
  ASSERT_TRUE(fn);
  fn();
  fn();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, LargeCaptureFallsBackToHeapAndStillRuns) {
  // Well past the 64-byte inline buffer.
  std::array<std::uint64_t, 32> payload{};
  payload.fill(7);
  std::uint64_t sum = 0;
  EventFn fn([payload, &sum] {
    for (auto v : payload) sum += v;
  });
  fn();
  EXPECT_EQ(sum, 7u * 32u);
}

TEST(EventFn, MoveTransfersTheCallable) {
  int hits = 0;
  EventFn a([&hits] { ++hits; });
  EventFn b(std::move(a));
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): testing moved-from
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(hits, 1);

  EventFn c;
  c = std::move(b);
  EXPECT_FALSE(b);  // NOLINT(bugprone-use-after-move)
  c();
  EXPECT_EQ(hits, 2);
}

TEST(EventFn, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(42);
  std::weak_ptr<int> watch = token;
  {
    EventFn fn([token] { (void)*token; });
    token.reset();
    EXPECT_FALSE(watch.expired());  // capture keeps it alive
    EventFn moved(std::move(fn));
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());  // released when the callable died
}

TEST(EventFn, NullptrAssignmentReleasesTheCapture) {
  auto token = std::make_shared<int>(1);
  std::weak_ptr<int> watch = token;
  EventFn fn([token] {});
  token.reset();
  fn = nullptr;
  EXPECT_FALSE(fn);
  EXPECT_TRUE(watch.expired());
}

TEST(EventFn, MoveAssignOverwritesAndDestroysPreviousCapture) {
  auto old_token = std::make_shared<int>(1);
  std::weak_ptr<int> old_watch = old_token;
  EventFn fn([old_token] {});
  old_token.reset();

  int hits = 0;
  fn = EventFn([&hits] { ++hits; });
  EXPECT_TRUE(old_watch.expired());
  fn();
  EXPECT_EQ(hits, 1);
}

}  // namespace
}  // namespace ldke::sim
