/// Sharded-kernel scaling bench: runs the same seed/size sweep across
/// lane counts and reports setup wall time plus speedup vs the serial
/// (lanes=1) event loop, then one headline point — the million-node,
/// density-20 setup at full lane width.  Each point runs kRunsPerPoint
/// times, each run in a forked child so wall time and peak RSS are
/// isolated, in rounds that alternate across the lane counts; the table,
/// the speedups and the JSON's point fields are the medians, and the
/// JSON keeps every run beside them.  The lane sweep also double-checks
/// the kernel's bit-identity contract: keys/node and the cluster count
/// must match the serial run exactly at every lane count and in every
/// run (the full regression lives in tests/integration/lane_determinism
/// _test.cpp; this is the belt to that suspenders).
///
/// Results land in results/BENCH_parallel.json.  On a single-core host
/// the lanes>1 rows measure sharding overhead, not speedup — the
/// "cores" field records how many were available so readers can tell.
///
/// Env knobs: LDKE_BENCH_PARALLEL_LANES ("1,2,4,8"),
/// LDKE_BENCH_PARALLEL_NODES (sweep size, default 100000),
/// LDKE_BENCH_PARALLEL_MILLION (0 skips the 1M point),
/// LDKE_BENCH_PARALLEL_OUT (output path; "" disables the JSON).

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <thread>

#include "bench_common.hpp"
#include "support/table.hpp"

namespace {

/// Forked runs per point: one slow run used to move the 100k 4-lane
/// speedup by a third, so every point reports the median of three.
constexpr int kRunsPerPoint = 3;

struct PointReport {
  double construct_s = 0.0;
  double setup_s = 0.0;
  double keys_per_node = 0.0;
  std::uint64_t clusters = 0;
  std::uint64_t events = 0;
  long peak_rss_kb = 0;  ///< filled in by the parent from wait4
};

std::vector<std::size_t> lane_sweep() {
  if (const char* env = std::getenv("LDKE_BENCH_PARALLEL_LANES")) {
    std::vector<std::size_t> lanes;
    const char* p = env;
    while (*p != '\0') {
      char* end = nullptr;
      const long v = std::strtol(p, &end, 10);
      if (end == p) break;
      if (v > 0) lanes.push_back(static_cast<std::size_t>(v));
      p = (*end == ',') ? end + 1 : end;
    }
    if (!lanes.empty()) return lanes;
  }
  return {1, 2, 4, 8};
}

std::size_t sweep_nodes() {
  if (const char* env = std::getenv("LDKE_BENCH_PARALLEL_NODES")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 100000;
}

bool run_million_point() {
  if (const char* env = std::getenv("LDKE_BENCH_PARALLEL_MILLION")) {
    return std::strtol(env, nullptr, 10) != 0;
  }
  return true;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

bool run_point(std::size_t nodes, std::size_t lanes, PointReport& report) {
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
      cfg.density = 20.0;
      cfg.kernel.lanes = lanes;
      const auto t0 = std::chrono::steady_clock::now();
      ldke::core::ProtocolRunner runner{cfg};
      r.construct_s = seconds_since(t0);
      const auto t1 = std::chrono::steady_clock::now();
      runner.run_key_setup();
      r.setup_s = seconds_since(t1);
      const auto m = ldke::core::collect_setup_metrics(runner);
      r.keys_per_node = m.mean_keys_per_node;
      r.clusters = m.cluster_count;
      r.events = runner.sim().events_executed();
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
  report.peak_rss_kb = ru.ru_maxrss;
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// The median over \p runs of one field.
template <class T>
T median_of(const std::vector<PointReport>& runs, T PointReport::*field) {
  std::vector<T> values;
  for (const PointReport& r : runs) values.push_back(r.*field);
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// A point's runs collapsed to the per-field medians; the simulated
/// outputs (keys/node, clusters, events) must agree across the runs.
struct Point {
  PointReport median;
  std::vector<PointReport> runs;
  bool runs_agree = true;

  explicit Point(std::vector<PointReport> all) : runs(std::move(all)) {
    median = runs.front();
    median.construct_s = median_of(runs, &PointReport::construct_s);
    median.setup_s = median_of(runs, &PointReport::setup_s);
    median.peak_rss_kb = median_of(runs, &PointReport::peak_rss_kb);
    for (const PointReport& r : runs) {
      runs_agree = runs_agree && r.keys_per_node == median.keys_per_node &&
                   r.clusters == median.clusters && r.events == median.events;
    }
  }

  [[nodiscard]] ldke::obs::JsonValue runs_json() const {
    ldke::obs::JsonValue out;
    for (const PointReport& r : runs) {
      ldke::obs::JsonValue run;
      run.set("construct_s", r.construct_s);
      run.set("setup_s", r.setup_s);
      run.set("peak_rss_kb", static_cast<std::int64_t>(r.peak_rss_kb));
      out.push(std::move(run));
    }
    return out;
  }
};

}  // namespace

int main() {
  using namespace ldke;
  const std::vector<std::size_t> lanes_sweep = lane_sweep();
  const std::size_t nodes = sweep_nodes();
  const std::uint64_t seed = bench::base_config().seed;
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "Parallel kernel: " << nodes << "-node density-20 key setup "
            << "across lane counts (" << cores << " core"
            << (cores == 1 ? "" : "s") << " available)\n\n";

  obs::JsonValue doc;
  doc.set("schema_version", 1);
  doc.set("bench", "parallel_kernel");
  doc.set("nodes", static_cast<std::uint64_t>(nodes));
  doc.set("density", 20.0);
  doc.set("seed", seed);
  doc.set("cores", static_cast<std::uint64_t>(cores));
  obs::JsonValue points;

  support::TextTable table({"lanes", "construct (s)", "setup (s)", "speedup",
                            "peak RSS (MB)", "keys/node", "setup runs (s)"});
  std::vector<std::vector<PointReport>> runs(lanes_sweep.size());
  for (int round = 0; round < kRunsPerPoint; ++round) {
    for (std::size_t i = 0; i < lanes_sweep.size(); ++i) {
      PointReport r;
      if (!run_point(nodes, lanes_sweep[i], r)) {
        std::cerr << "point failed: lanes=" << lanes_sweep[i] << "\n";
        return 1;
      }
      runs[i].push_back(r);
    }
  }
  const auto setup_runs = [](const Point& p) {
    std::string out;
    for (const PointReport& r : p.runs) {
      out += (out.empty() ? "" : " ") + support::fmt(r.setup_s, 2);
    }
    return out;
  };
  double serial_setup_s = 0.0;
  double serial_keys = 0.0;
  std::uint64_t serial_clusters = 0;
  bool identical = true;
  for (std::size_t i = 0; i < lanes_sweep.size(); ++i) {
    const Point p{runs[i]};
    const PointReport& r = p.median;
    identical = identical && p.runs_agree;
    if (i == 0) {
      serial_setup_s = r.setup_s;
      serial_keys = r.keys_per_node;
      serial_clusters = r.clusters;
    } else if (r.keys_per_node != serial_keys ||
               r.clusters != serial_clusters) {
      identical = false;  // bit-identity contract broken
    }
    const double speedup = r.setup_s > 0.0 ? serial_setup_s / r.setup_s : 0.0;
    table.add_row({std::to_string(lanes_sweep[i]),
                   support::fmt(r.construct_s, 2),
                   support::fmt(r.setup_s, 2), support::fmt(speedup, 2),
                   support::fmt(static_cast<double>(r.peak_rss_kb) / 1024.0, 1),
                   support::fmt(r.keys_per_node, 3), setup_runs(p)});

    obs::JsonValue point;
    point.set("lanes", static_cast<std::uint64_t>(lanes_sweep[i]));
    point.set("construct_s", r.construct_s);
    point.set("setup_s", r.setup_s);
    point.set("speedup_vs_serial", speedup);
    point.set("peak_rss_kb", static_cast<std::int64_t>(r.peak_rss_kb));
    point.set("keys_per_node", r.keys_per_node);
    point.set("clusters", r.clusters);
    point.set("events", r.events);
    point.set("runs", p.runs_json());
    points.push(std::move(point));
  }
  doc.set("points", std::move(points));
  table.print(std::cout);
  std::cout << "medians of " << kRunsPerPoint
            << " runs per point; setup metrics identical across lane counts "
               "and runs: "
            << (identical ? "yes" : "NO — DETERMINISM BROKEN") << "\n";

  if (run_million_point()) {
    const std::size_t big = 1000000;
    const std::size_t big_lanes =
        std::max<std::size_t>(1, std::min<std::size_t>(cores, 16));
    std::cout << "\nheadline: " << big << " nodes at lanes=" << big_lanes
              << ", " << kRunsPerPoint << " runs...\n";
    std::vector<PointReport> big_runs(kRunsPerPoint);
    for (PointReport& r : big_runs) {
      if (!run_point(big, big_lanes, r)) {
        std::cerr << "million-node point failed\n";
        return 1;
      }
    }
    const Point p{big_runs};
    const PointReport& r = p.median;
    identical = identical && p.runs_agree;
    std::cout << "median construct " << support::fmt(r.construct_s, 2)
              << " s, setup " << support::fmt(r.setup_s, 2) << " s (runs "
              << setup_runs(p) << "), peak RSS "
              << support::fmt(static_cast<double>(r.peak_rss_kb) / 1024.0, 0)
              << " MB, " << r.events << " events\n";
    obs::JsonValue million;
    million.set("nodes", static_cast<std::uint64_t>(big));
    million.set("lanes", static_cast<std::uint64_t>(big_lanes));
    million.set("construct_s", r.construct_s);
    million.set("setup_s", r.setup_s);
    million.set("peak_rss_kb", static_cast<std::int64_t>(r.peak_rss_kb));
    million.set("keys_per_node", r.keys_per_node);
    million.set("events", r.events);
    million.set("runs", p.runs_json());
    doc.set("million_node", std::move(million));
  }

  const char* out_env = std::getenv("LDKE_BENCH_PARALLEL_OUT");
  const std::string out_path =
      out_env != nullptr ? out_env : "results/BENCH_parallel.json";
  if (!out_path.empty()) {
    std::ofstream os(out_path);
    if (!os) {
      std::cerr << "cannot write " << out_path << "\n";
      return 1;
    }
    os << doc.dump() << "\n";
    std::cout << "wrote " << out_path << "\n";
  }
  return identical ? 0 : 1;
}
