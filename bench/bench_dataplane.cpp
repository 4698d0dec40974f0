/// Steady-state data-plane bench: setup + routing, then one
/// DataPlaneEngine window at the engine's default load (80 readings/s,
/// below the radio's capacity) in this process, reporting throughput,
/// DeliveryTracker p50/p95/p99, crypto totals and peak RSS
/// (getrusage(RUSAGE_SELF)).  Each payload block is freed at its last
/// delivery, so peak RSS over two window lengths shows what does grow
/// with the window: DeliveryTracker's map of undelivered originations
/// and its latency samples.  At 600 nodes that reads 5.1 MB for a 5 s
/// window and 5.5 MB for a 70 s one.  The window evicts
/// a cluster twice whatever its length (every duration / 2 s), so a long
/// burn measures the same network as a short one, not an ever more
/// evicted one.
///
/// Results land in results/BENCH_dataplane.json.  Env knobs:
/// LDKE_BENCH_DATAPLANE_NODES, LDKE_BENCH_DATAPLANE_DURATION (engine
/// window, s), LDKE_BENCH_DATAPLANE_MIN_PPS (originations/s floor over
/// the engine's wall time; unset = no gate), LDKE_BENCH_OUT.

#include <sys/resource.h>

#include "bench_common.hpp"
#include "core/dataplane.hpp"
#include "support/table.hpp"

namespace {

using namespace ldke;

constexpr double kDensity = 12.0;

}  // namespace

int main() {
  const std::size_t nodes =
      bench::env_count("LDKE_BENCH_DATAPLANE_NODES", 600);
  const double duration =
      bench::env_number("LDKE_BENCH_DATAPLANE_DURATION", 5.0);
  const double min_pps =
      bench::env_number("LDKE_BENCH_DATAPLANE_MIN_PPS", 0.0);
  obs::JsonValue doc = bench::artifact("dataplane", 4);

  std::cout << "Data-plane bench: " << nodes << " nodes, density " << kDensity
            << ", " << duration << " s steady state\n\n";

  core::RunnerConfig cfg = bench::base_config();
  cfg.node_count = nodes;
  cfg.density = kDensity;
  core::ProtocolRunner runner{cfg};
  const auto t0 = bench::Clock::now();
  runner.run_key_setup();
  runner.run_routing_setup();
  const double setup_s = bench::seconds_since(t0);

  core::DataPlaneConfig dp;
  dp.duration_s = duration;
  dp.refresh_interval_s = 1.0;
  dp.evict_interval_s = duration / 2.0;
  core::DataPlaneEngine engine{runner, dp};
  const auto t1 = bench::Clock::now();
  const core::DataPlaneStats stats = engine.run();
  const double engine_s = bench::seconds_since(t1);

  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  const long peak_rss_kb = ru.ru_maxrss;

  const obs::DeliveryTracker& dt = runner.deliveries();
  const std::uint64_t hop_tx = runner.network().counters().value("data.hop_tx");
  const crypto::CryptoCounters totals = runner.crypto_totals();
  const double pps = static_cast<double>(stats.originated) / engine_s;

  support::TextTable table({"engine (s)", "originated/s", "hop tx/s",
                            "p50 (ms)", "p95 (ms)", "p99 (ms)", "RSS (MB)"});
  table.add_row(
      {support::fmt(engine_s, 2), support::fmt(pps, 0),
       support::fmt(static_cast<double>(hop_tx) / engine_s, 0),
       support::fmt(dt.latency_percentile_s(0.50) * 1e3, 2),
       support::fmt(dt.latency_percentile_s(0.95) * 1e3, 2),
       support::fmt(dt.latency_percentile_s(0.99) * 1e3, 2),
       support::fmt(static_cast<double>(peak_rss_kb) / 1024.0, 1)});
  table.print(std::cout);

  obs::JsonValue point;
  point.set("setup_s", setup_s);
  point.set("engine_wall_s", engine_s);
  point.set("originated", stats.originated);
  point.set("hop_tx", hop_tx);
  point.set("delivered", dt.delivered());
  point.set("originated_per_s", pps);
  point.set("hop_tx_per_s", static_cast<double>(hop_tx) / engine_s);
  point.set("seal_per_s", static_cast<double>(totals.seals) / engine_s);
  point.set("open_per_s", static_cast<double>(totals.opens) / engine_s);
  point.set("latency_p50_ms", dt.latency_percentile_s(0.50) * 1e3);
  point.set("latency_p95_ms", dt.latency_percentile_s(0.95) * 1e3);
  point.set("latency_p99_ms", dt.latency_percentile_s(0.99) * 1e3);
  point.set("seals", totals.seals);
  point.set("opens", totals.opens);
  point.set("refresh_rounds", stats.refresh_rounds);
  point.set("peak_rss_kb", static_cast<std::int64_t>(peak_rss_kb));

  doc.set("nodes", static_cast<std::uint64_t>(nodes));
  doc.set("density", kDensity);
  doc.set("duration_s", duration);
  doc.set("engine", std::move(point));
  if (!bench::write_artifact(doc)) return 1;

  if (min_pps > 0.0 && pps < min_pps) {
    std::cerr << "FAIL: " << support::fmt(pps, 0)
              << " originations/s below the " << support::fmt(min_pps, 0)
              << " floor\n";
    return 1;
  }
  return 0;
}
