#include "net/payload.hpp"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "net/channel.hpp"
#include "net/network.hpp"
#include "support/hex.hpp"

namespace ldke::net {
namespace {

support::Bytes bytes_of(std::initializer_list<std::uint8_t> xs) {
  return support::Bytes{xs};
}

TEST(PayloadRef, HeapPathCopiesOnceAndShares) {
  const support::Bytes src = bytes_of({1, 2, 3, 4});
  const std::uint64_t before = PayloadRef::buffers_created();
  PayloadRef a{src};
  PayloadRef b = a;                     // refcount bump, no copy
  const PayloadRef c = PayloadRef{a};   // ditto via move of a copy
  EXPECT_EQ(PayloadRef::buffers_created(), before + 1);
  EXPECT_TRUE(b.shares_buffer_with(a));
  EXPECT_TRUE(c.shares_buffer_with(a));
  EXPECT_EQ(a, src);
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a[2], 3u);
}

TEST(PayloadRef, MoveLeavesSourceEmpty) {
  PayloadRef a{bytes_of({9, 9})};
  PayloadRef b{std::move(a)};
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move): post-move spec
  EXPECT_EQ(b.size(), 2u);
}

TEST(PayloadRef, EmptyIsNull) {
  const PayloadRef empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.data(), nullptr);
  const PayloadRef from_empty{support::Bytes{}};
  EXPECT_TRUE(from_empty.shares_buffer_with(empty));
}

TEST(PayloadRef, LastReleaseFrees) {
  // 0 - 1 - 2 on a line: a frame from 1 is heard by 0 and 2.
  sim::Simulator sim{1};
  const Topology topo = Topology::from_positions({{0, 0}, {1, 0}, {2, 0}}, 1.5);
  EnergyModel energy;
  energy.resize(topo.size());
  obs::MetricRegistry counters;
  Channel channel{sim, topo, energy, counters, {}};
  std::vector<std::uint8_t> heard;
  channel.set_delivery_handler([&](NodeId, const Packet& pkt) {
    heard.push_back(pkt.payload[0]);
  });

  const std::uint64_t base = PayloadRef::buffers_live();
  {
    Packet frame;
    frame.sender = 1;
    frame.payload = bytes_of({7, 8, 9});
    EXPECT_EQ(PayloadRef::buffers_live(), base + 1);
    channel.broadcast(frame);
    // A forward of the same bytes later: a second scheduled delivery
    // event holds its own copy of the one block.
    sim.schedule_in(sim::SimTime::from_seconds(1.0),
                    [&channel, frame] { channel.broadcast(frame); });
  }
  // The sender's copy is gone; the scheduled events keep the block.
  EXPECT_EQ(PayloadRef::buffers_live(), base + 1);
  ASSERT_GT(sim.pending_events(), 0u);
  sim.run(sim::SimTime::from_seconds(0.5));  // first delivery only
  EXPECT_EQ(heard.size(), 2u);
  EXPECT_EQ(PayloadRef::buffers_live(), base + 1);
  sim.run();
  EXPECT_EQ(heard, (std::vector<std::uint8_t>{7, 7, 7, 7}));
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(PayloadRef::buffers_live(), base);  // the last release freed it
}

TEST(PayloadRef, ConcurrentReleaseFreesOnce) {
  // Four threads copy and drop refs to the same blocks, as lanes do
  // with a halo delivery's payload.  Whichever thread drops a block's
  // last ref frees it, exactly once: live returns to its base, neither
  // above (a leak) nor below (a second free).
  constexpr int kThreads = 4;
  constexpr int kBlocks = 64;
  constexpr int kRounds = 2000;
  const std::uint64_t base = PayloadRef::buffers_live();
  std::vector<PayloadRef> shared;
  for (int i = 0; i < kBlocks; ++i) {
    shared.emplace_back(bytes_of({static_cast<std::uint8_t>(i), 1, 2, 3}));
  }
  ASSERT_EQ(PayloadRef::buffers_live(), base + kBlocks);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([mine = shared, t]() mutable {
      for (int round = 0; round < kRounds; ++round) {
        for (int i = 0; i < kBlocks; ++i) {
          const PayloadRef copy = mine[i];
          const PayloadRef again = copy;
          EXPECT_EQ(again[0], static_cast<std::uint8_t>(i));
        }
      }
      // Drop this thread's refs in a thread-dependent order.
      for (int i = 0; i < kBlocks; ++i) {
        mine[(i * 7 + t * 13) % kBlocks] = PayloadRef{};
      }
    });
  }
  shared.clear();  // the workers now hold the only refs
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(PayloadRef::buffers_live(), base);
}

}  // namespace
}  // namespace ldke::net
