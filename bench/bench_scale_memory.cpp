/// Large-N memory/footprint bench: forks one child per network size so
/// each point's peak RSS is measured in isolation (getrusage on the
/// reaped child), builds the deployment, runs the §IV-B key setup, and
/// records peak RSS plus construction/setup wall time per node into
/// results/BENCH_scale.json (obs JSON, same document conventions as the
/// RunSummary artifacts).  The paper stops at 3600 nodes; this bench is
/// the evidence that the flat-container node state, with each payload
/// freed at its frame's last delivery, holds its per-node budget out
/// to 1M (the default sizes end there).
///
/// Env knobs: LDKE_BENCH_SCALE_SIZES ("2000,20000"), LDKE_BENCH_SCALE
/// _DENSITY, LDKE_BENCH_SCALE_OUT (output path; "" disables the JSON),
/// LDKE_BENCH_SCALE_LANES (sharded-kernel lanes; 0 = one per core).

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench_common.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

/// What a child measures about its own trial; piped to the parent as a
/// fixed-size record (parent adds the child's peak RSS from wait4).
struct PointReport {
  double construct_s = 0.0;
  double setup_s = 0.0;
  double keys_per_node = 0.0;
  double realized_density = 0.0;
  std::uint64_t clusters = 0;
};

std::vector<std::size_t> scale_sizes() {
  if (const char* env = std::getenv("LDKE_BENCH_SCALE_SIZES")) {
    std::vector<std::size_t> sizes;
    const char* p = env;
    while (*p != '\0') {
      char* end = nullptr;
      const long v = std::strtol(p, &end, 10);
      if (end == p) break;
      if (v > 0) sizes.push_back(static_cast<std::size_t>(v));
      p = (*end == ',') ? end + 1 : end;
    }
    if (!sizes.empty()) return sizes;
  }
  return {ldke::analysis::kScaleSweepSizes.begin(),
          ldke::analysis::kScaleSweepSizes.end()};
}

double scale_density() {
  if (const char* env = std::getenv("LDKE_BENCH_SCALE_DENSITY")) {
    const double v = std::strtod(env, nullptr);
    if (v > 0.0) return v;
  }
  return 20.0;
}

std::size_t scale_lanes() {
  if (const char* env = std::getenv("LDKE_BENCH_SCALE_LANES")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v >= 0) return static_cast<std::size_t>(v);
  }
  return 0;  // one lane per hardware thread
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Runs one size in a forked child; returns false when the child failed.
bool run_point(std::size_t nodes, double density, std::size_t lanes,
               PointReport& report, long& peak_rss_kb) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    PointReport r;
    {
      ldke::core::RunnerConfig cfg = ldke::bench::base_config();
      cfg.node_count = nodes;
      cfg.density = density;
      cfg.kernel.lanes = lanes;
      const auto t0 = std::chrono::steady_clock::now();
      ldke::core::ProtocolRunner runner{cfg};
      r.construct_s = seconds_since(t0);
      const auto t1 = std::chrono::steady_clock::now();
      runner.run_key_setup();
      r.setup_s = seconds_since(t1);
      const auto m = ldke::core::collect_setup_metrics(runner);
      r.keys_per_node = m.mean_keys_per_node;
      r.realized_density = m.realized_density;
      r.clusters = m.cluster_count;
    }
    const bool ok = write(fds[1], &r, sizeof(r)) == sizeof(r);
    close(fds[1]);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  const bool got = read(fds[0], &report, sizeof(report)) == sizeof(report);
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  if (wait4(pid, &status, 0, &ru) != pid) return false;
  peak_rss_kb = ru.ru_maxrss;
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

}  // namespace

int main() {
  using namespace ldke;
  const std::vector<std::size_t> sizes = scale_sizes();
  const double density = scale_density();
  std::size_t lanes = scale_lanes();
  if (lanes == 0) {
    lanes = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  const std::uint64_t seed = bench::base_config().seed;
  std::cout << "Scale memory: peak RSS and wall time per node, density "
            << density << ", lanes " << lanes
            << " (one forked child per size)\n\n";

  support::TextTable table({"nodes", "peak RSS (MB)", "RSS/node (B)",
                            "construct (s)", "setup (s)", "keys/node"});
  obs::JsonValue doc;
  doc.set("schema_version", 1);
  doc.set("bench", "scale_memory");
  doc.set("density", density);
  doc.set("lanes", static_cast<std::uint64_t>(lanes));
  doc.set("seed", seed);
  obs::JsonValue points;

  std::vector<double> keys_means;
  for (std::size_t nodes : sizes) {
    PointReport r;
    long rss_kb = 0;
    if (!run_point(nodes, density, lanes, r, rss_kb)) {
      std::cerr << "point failed: nodes=" << nodes << "\n";
      return 1;
    }
    const double rss_per_node =
        static_cast<double>(rss_kb) * 1024.0 / static_cast<double>(nodes);
    table.add_row({std::to_string(nodes),
                   support::fmt(static_cast<double>(rss_kb) / 1024.0, 1),
                   support::fmt(rss_per_node, 0), support::fmt(r.construct_s, 2),
                   support::fmt(r.setup_s, 2),
                   support::fmt(r.keys_per_node, 3)});
    keys_means.push_back(r.keys_per_node);

    obs::JsonValue point;
    point.set("nodes", static_cast<std::uint64_t>(nodes));
    point.set("peak_rss_kb", static_cast<std::int64_t>(rss_kb));
    point.set("rss_bytes_per_node", rss_per_node);
    point.set("construct_s", r.construct_s);
    point.set("setup_s", r.setup_s);
    point.set("setup_s_per_kilonode",
              r.setup_s * 1000.0 / static_cast<double>(nodes));
    point.set("keys_per_node", r.keys_per_node);
    point.set("realized_density", r.realized_density);
    point.set("clusters", r.clusters);
    points.push(std::move(point));
  }
  doc.set("points", std::move(points));
  table.print(std::cout);

  // Same size-invariance contract bench_scalability enforces: the
  // protocol metrics must not drift with N even at the 100k extremes.
  const double spread =
      (*std::max_element(keys_means.begin(), keys_means.end()) -
       *std::min_element(keys_means.begin(), keys_means.end())) /
      support::mean_of(keys_means);
  std::cout << "keys/node spread across sizes: "
            << support::fmt(spread * 100.0, 1) << "%\n";

  const char* out_env = std::getenv("LDKE_BENCH_SCALE_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "results/BENCH_scale.json";
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    os << doc.dump() << "\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return spread < 0.10 ? 0 : 1;
}
