#include "sim/simulator.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "support/thread_pool.hpp"

namespace ldke::sim {
namespace {

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
  Simulator sim;
  EXPECT_EQ(sim.now(), SimTime::zero());
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  SimTime seen = SimTime::zero();
  sim.schedule_in(SimTime::from_ms(5), [&] { seen = sim.now(); });
  sim.run();
  EXPECT_EQ(seen, SimTime::from_ms(5));
  EXPECT_EQ(sim.now(), SimTime::from_ms(5));
}

TEST(Simulator, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Simulator sim;
  int ran = 0;
  sim.schedule_in(SimTime::from_ms(1), [&] { ++ran; });
  sim.schedule_in(SimTime::from_ms(100), [&] { ++ran; });
  const auto executed = sim.run(SimTime::from_ms(10));
  EXPECT_EQ(executed, 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(sim.now(), SimTime::from_ms(10));
  // The far event still fires on the next run.
  sim.run();
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, ScheduleInIsRelativeToNow) {
  Simulator sim;
  SimTime inner = SimTime::zero();
  sim.schedule_in(SimTime::from_ms(10), [&] {
    sim.schedule_in(SimTime::from_ms(5), [&] { inner = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(inner, SimTime::from_ms(15));
}

TEST(Simulator, StepRunsExactlyOneEvent) {
  Simulator sim;
  int ran = 0;
  sim.schedule_in(SimTime::from_ms(1), [&] { ++ran; });
  sim.schedule_in(SimTime::from_ms(2), [&] { ++ran; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(ran, 2);
  EXPECT_FALSE(sim.step());
}

TEST(Simulator, StopEndsRunEarly) {
  Simulator sim;
  int ran = 0;
  sim.schedule_in(SimTime::from_ms(1), [&] {
    ++ran;
    sim.stop();
  });
  sim.schedule_in(SimTime::from_ms(2), [&] { ++ran; });
  sim.run();
  EXPECT_EQ(ran, 1);
  sim.run();  // resumes
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, CancelThroughSimulator) {
  Simulator sim;
  bool ran = false;
  const EventId id = sim.schedule_in(SimTime::from_ms(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  sim.run();
  EXPECT_FALSE(ran);
}

TEST(Simulator, RngIsSeedDetermined) {
  Simulator a{42}, b{42}, c{43};
  EXPECT_EQ(a.rng().next(), b.rng().next());
  Simulator a2{42};
  EXPECT_NE(a2.rng().next(), c.rng().next());
}

TEST(Simulator, EventsExecutedAccumulates) {
  Simulator sim;
  for (int i = 0; i < 5; ++i) sim.schedule_in(SimTime::from_ms(i), [] {});
  sim.run();
  EXPECT_EQ(sim.events_executed(), 5u);
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
  support::ThreadPool pool{2};
  Simulator sim;
  sim.enable_sharding(2, SimTime::from_ms(1), pool);
  ASSERT_NE(sim.kernel(), nullptr);
  EXPECT_THROW((void)sim.reserve_sequence(1), std::logic_error);
  EXPECT_THROW(sim.schedule_reserved(SimTime::from_ms(1), 0, [] {}),
               std::logic_error);
  EXPECT_EQ(sim.pending_events(), 0u);
}

}  // namespace
}  // namespace ldke::sim
