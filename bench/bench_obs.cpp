/// Micro-benchmarks of the observability layer (google-benchmark): the
/// instrumentation lives on the simulator/channel/crypto hot paths, so a
/// counter bump through an interned handle must cost ~1 ns and a span
/// begin/end pair must stay well under a microsecond.  Results go to
/// results/BENCH_obs_micro.json.

#include <benchmark/benchmark.h>

#include <sstream>
#include <vector>

#include "crypto/obs.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/audit.hpp"
#include "obs/delivery.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/trace_sink.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace ldke;

void BM_CounterIncrementByName(benchmark::State& state) {
  obs::MetricRegistry reg;
  for (auto _ : state) {
    reg.increment("channel.tx");
  }
  benchmark::DoNotOptimize(reg.value("channel.tx"));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterIncrementByName);

void BM_CounterIncrementByHandle(benchmark::State& state) {
  obs::MetricRegistry reg;
  obs::MetricRegistry::Handle h = reg.handle("channel.tx");
  for (auto _ : state) {
    reg.increment(h);
  }
  benchmark::DoNotOptimize(reg.value("channel.tx"));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CounterIncrementByHandle);

void BM_GaugeSetByHandle(benchmark::State& state) {
  obs::MetricRegistry reg;
  obs::MetricRegistry::GaugeHandle h = reg.gauge_handle("queue.depth");
  double v = 0.0;
  for (auto _ : state) {
    reg.set_gauge(h, v);
    v += 1.0;
  }
  benchmark::DoNotOptimize(reg.gauge("queue.depth"));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_GaugeSetByHandle);

void BM_HistogramObserve(benchmark::State& state) {
  obs::MetricRegistry reg;
  obs::MetricRegistry::HistogramHandle h = reg.histogram_handle("latency");
  double v = 0.001;
  for (auto _ : state) {
    reg.observe(h, v);
    v = v < 1e6 ? v * 1.0001 : 0.001;
  }
  benchmark::DoNotOptimize(reg.histogram("latency"));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramObserve);

void BM_SpanBeginEnd(benchmark::State& state) {
  obs::PhaseTimeline timeline;
  std::int64_t now = 0;
  for (auto _ : state) {
    const obs::SpanId id = timeline.begin_span("phase", now);
    timeline.end_span(id, now + 10);
    now += 20;
    if (timeline.spans().size() >= 1u << 16) timeline.clear();
  }
  benchmark::DoNotOptimize(timeline.spans().size());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SpanBeginEnd);

void BM_CryptoCounterBump(benchmark::State& state) {
  crypto::CryptoCounters counters;
  crypto::ScopedCryptoCounters guard{counters};
  for (auto _ : state) {
    // What seal()/open()/prf() pay per call when a sink is installed.
    if (crypto::CryptoCounters* sink = crypto::crypto_counters_sink()) {
      ++sink->seals;
      sink->sealed_bytes += 64;
    }
  }
  benchmark::DoNotOptimize(counters.seals);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CryptoCounterBump);

void BM_DeliveryTrackerPair(benchmark::State& state) {
  obs::DeliveryTracker tracker;
  std::int64_t now = 0;
  std::uint64_t seq = 0;
  for (auto _ : state) {
    ++seq;
    tracker.on_originate(7, seq, now);
    tracker.on_deliver(7, seq, now + 1000);
    now += 2000;
    if (tracker.delivered() >= 1u << 16) tracker.clear();
  }
  benchmark::DoNotOptimize(tracker.delivered());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DeliveryTrackerPair);

void BM_TraceSinkPacketLine(benchmark::State& state) {
  std::ostringstream os;
  obs::TraceSink sink{os};
  std::int64_t t = 0;
  for (auto _ : state) {
    sink.write_packet(t, 42, "data", 96);
    t += 1000;
    if (os.tellp() > (1 << 22)) {
      os.str({});
      os.clear();
    }
  }
  benchmark::DoNotOptimize(sink.lines_written());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceSinkPacketLine);

/// Two nodes in range of each other — enough Network to host audit().
net::Topology tiny_topology() {
  return net::Topology::from_positions({{0.0, 0.0}, {1.0, 0.0}}, 2.5);
}

void BM_AuditEmitNoSink(benchmark::State& state) {
  // What every emission site (per-envelope replay checks included) pays
  // when no audit sink is attached: one predictable branch.  The budget
  // is <=5 ns/event so instrumentation can stay on by default.
  sim::Simulator sim{1};
  net::Network net{sim, tiny_topology()};
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    net.audit(obs::AuditKind::kReplayRejected, 1, 0, nonce++);
    // Force the sink pointer to be re-loaded each iteration; without
    // this the loop folds to nothing and measures 0 ns.
    benchmark::ClobberMemory();
  }
  benchmark::DoNotOptimize(net.audit_sink());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AuditEmitNoSink);

void BM_AuditEmitAttached(benchmark::State& state) {
  // Full emission path with a sink: sim-time read, lane resolve, shard
  // append (periodic clear keeps the shard out of eviction).
  sim::Simulator sim{1};
  net::Network net{sim, tiny_topology()};
  obs::AuditSink sink{1 << 18};
  net.set_audit_sink(&sink);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    net.audit(obs::AuditKind::kReplayRejected, 1, 0, nonce++);
    if (sink.total_recorded() >= 1u << 17) sink.clear();
  }
  benchmark::DoNotOptimize(sink.total_seen());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AuditEmitAttached);

void BM_AuditSinkRecord(benchmark::State& state) {
  // The sink's shard append alone, without the Network front end.
  obs::AuditSink sink{1 << 18};
  obs::AuditEvent event{.t_ns = 0,
                        .actor = 7,
                        .subject = 3,
                        .arg = 0,
                        .kind = obs::AuditKind::kRefreshApplied};
  for (auto _ : state) {
    sink.record(0, event);
    ++event.t_ns;
    if (sink.total_recorded() >= 1u << 17) sink.clear();
  }
  benchmark::DoNotOptimize(sink.total_seen());
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AuditSinkRecord);

void BM_RegistrySnapshot(benchmark::State& state) {
  obs::MetricRegistry reg;
  for (int i = 0; i < 64; ++i) {
    reg.increment("counter." + std::to_string(i), i + 1);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(reg.snapshot_json().dump());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_RegistrySnapshot);

}  // namespace

BENCHMARK_MAIN();
