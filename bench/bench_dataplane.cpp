/// Steady-state data-plane bench: setup + routing, then one
/// DataPlaneEngine window at the engine's default load (80 readings/s,
/// below the radio's capacity) in this process, reporting throughput,
/// DeliveryTracker p50/p95/p99, crypto totals and peak RSS
/// (getrusage(RUSAGE_SELF)).  Each payload block is freed at its last
/// delivery, so peak RSS over two window lengths shows what does grow
/// with the window: DeliveryTracker's per-source queues of undelivered
/// originations and its latency samples.  At 600 nodes that reads
/// 5.5 MB for a 5 s window and 6.0 MB for a 70 s one.
///
/// Results land in results/BENCH_dataplane.json.  Env knobs:
/// LDKE_BENCH_DATAPLANE_NODES, _DENSITY, _DURATION (engine window s),
/// _OUT (output path, "" disables), _MIN_PPS (originations/s floor over
/// the engine's wall time; 0 = no gate).

#include <sys/resource.h>

#include <chrono>
#include <fstream>

#include "bench_common.hpp"
#include "core/dataplane.hpp"
#include "crypto/cpu_features.hpp"
#include "support/table.hpp"

namespace {

using namespace ldke;

double env_double(const char* name, double fallback) {
  if (const char* env = std::getenv(name)) {
    const double v = std::strtod(env, nullptr);
    if (v > 0.0) return v;
  }
  return fallback;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  const auto nodes = static_cast<std::size_t>(
      env_double("LDKE_BENCH_DATAPLANE_NODES", 600));
  const double density = env_double("LDKE_BENCH_DATAPLANE_DENSITY", 12.0);
  const double duration = env_double("LDKE_BENCH_DATAPLANE_DURATION", 5.0);
  const double min_pps = env_double("LDKE_BENCH_DATAPLANE_MIN_PPS", 0.0);
  const std::uint64_t seed = bench::base_config().seed;
  const bool hw = crypto::detail::cpu_has_aesni() &&
                  crypto::detail::cpu_has_sha_ni();

  std::cout << "Data-plane bench: " << nodes << " nodes, density " << density
            << ", " << duration << " s steady state (AES-NI+SHA-NI: "
            << (hw ? "yes" : "no") << ")\n\n";

  core::RunnerConfig cfg = bench::base_config();
  cfg.node_count = nodes;
  cfg.density = density;
  core::ProtocolRunner runner{cfg};
  const auto t0 = std::chrono::steady_clock::now();
  runner.run_key_setup();
  runner.run_routing_setup();
  const double setup_s = seconds_since(t0);

  core::DataPlaneConfig dp;
  dp.duration_s = duration;
  dp.refresh_interval_s = 1.0;
  dp.evict_interval_s = 2.5;
  core::DataPlaneEngine engine{runner, dp};
  const auto t1 = std::chrono::steady_clock::now();
  const core::DataPlaneStats stats = engine.run();
  const double engine_s = seconds_since(t1);

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

  obs::JsonValue doc;
  doc.set("schema_version", 3);
  doc.set("bench", "dataplane");
  doc.set("nodes", static_cast<std::uint64_t>(nodes));
  doc.set("density", density);
  doc.set("duration_s", duration);
  doc.set("seed", seed);
  doc.set("aesni_shani", hw);
  doc.set("engine", std::move(point));

  const char* out_env = std::getenv("LDKE_BENCH_DATAPLANE_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "results/BENCH_dataplane.json";
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    os << doc.dump() << "\n";
    std::cout << "wrote " << out_path << "\n";
  }

  if (min_pps > 0.0 && pps < min_pps) {
    std::cerr << "FAIL: " << support::fmt(pps, 0)
              << " originations/s below the " << support::fmt(min_pps, 0)
              << " floor\n";
    return 1;
  }
  return 0;
}
