/// Micro-benchmarks of the packet path (google-benchmark): channel
/// broadcast fan-out cost at the paper's densities, and the per-receiver
/// payload handling cost in isolation.  BM_ChannelBroadcast is the
/// before/after gauge for the zero-copy payload refactor: the seed
/// channel deep-copied the payload once per neighbor at delivery
/// scheduling time, so its cost grew with density; a shared immutable
/// buffer makes it O(1) allocations per transmission.
///
/// run_benches.sh records this suite as results/BENCH_net_micro.json.

#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "net/channel.hpp"
#include "net/payload.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace ldke;

/// Hub node 0 with `neighbors` receivers on a circle inside radio range.
net::Topology star_topology(std::size_t neighbors) {
  std::vector<net::Vec2> positions{{0.0, 0.0}};
  for (std::size_t i = 0; i < neighbors; ++i) {
    const double angle = 2.0 * 3.14159265358979 * static_cast<double>(i) /
                         static_cast<double>(neighbors);
    positions.push_back({std::cos(angle), std::sin(angle)});
  }
  return net::Topology::from_positions(std::move(positions), 2.5);
}

/// A sealed-envelope-sized payload (16B header + body + 32B tag).
constexpr std::size_t kPayloadBytes = 80;

void BM_ChannelBroadcast(benchmark::State& state) {
  const auto neighbors = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim{1};
  auto topo = star_topology(neighbors);
  net::EnergyModel energy;
  energy.resize(topo.size());
  obs::MetricRegistry counters;
  net::Channel channel{sim, topo, energy, counters, {}};
  std::uint64_t delivered = 0;
  channel.set_delivery_handler([&](net::NodeId, const net::Packet& pkt) {
    benchmark::DoNotOptimize(pkt.payload.data());
    ++delivered;
  });
  net::Packet packet;
  packet.sender = 0;
  packet.kind = net::PacketKind::kData;
  packet.payload = support::Bytes(kPayloadBytes, 0xab);
  const std::uint64_t buffers_before = net::PayloadRef::buffers_created();
  for (auto _ : state) {
    channel.broadcast(packet);
    sim.run();
  }
  benchmark::DoNotOptimize(delivered);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["deliveries_per_tx"] =
      static_cast<double>(delivered) / static_cast<double>(state.iterations());
  // Payload buffers allocated per transmission across the whole fan-out
  // (scheduling + delivery).  The zero-copy path reads 0.0 here: the one
  // buffer made above is shared by every receiver via refcount.
  state.counters["allocs_per_tx"] =
      static_cast<double>(net::PayloadRef::buffers_created() - buffers_before) /
      static_cast<double>(state.iterations());
}
BENCHMARK(BM_ChannelBroadcast)->Arg(8)->Arg(20);

/// The seed channel's per-receiver behaviour in isolation: one full
/// payload allocation + copy per neighbor, every transmission.
void BM_PayloadFanoutDeepCopy(benchmark::State& state) {
  const auto neighbors = static_cast<std::size_t>(state.range(0));
  const support::Bytes payload(kPayloadBytes, 0xab);
  for (auto _ : state) {
    for (std::size_t i = 0; i < neighbors; ++i) {
      support::Bytes copy = payload;
      benchmark::DoNotOptimize(copy.data());
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_PayloadFanoutDeepCopy)->Arg(8)->Arg(20);

}  // namespace

BENCHMARK_MAIN();
