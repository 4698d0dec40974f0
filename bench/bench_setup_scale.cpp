/// Setup-scale bench: the density-20 §IV-B key setup at every point of a
/// grid of network sizes × sharded-kernel lane counts, the evidence for
/// the paper's §V/§VII scale claim (keys per node independent of N) out
/// to 1M nodes, three orders of magnitude past the paper's largest
/// deployment.  Each run is a forked child, so its wall time and peak RSS
/// (getrusage on the reaped child) are its own.  Every point runs
/// kRunsPerPoint times, in rounds that alternate across the lane counts of
/// its size; the table and the JSON's point fields are the medians, and
/// the JSON keeps every run beside them.  Each point reports its speedup
/// over the first lane count at its size, ms per kilonode, peak RSS and
/// RSS per node.
///
/// Gates (exit 1):
///   - keys/node, clusters and events are identical across a point's runs;
///   - keys/node and clusters are identical across the lane counts of a
///     size (the kernel's bit-identity contract; the full regression lives
///     in tests/integration/lane_determinism_test.cpp);
///   - keys/node spreads by less than 10 % across sizes.
///
/// On a single-core host the lanes > 1 points measure sharding overhead,
/// not speedup; `host.cores` records how many cores there were.
///
/// Results land in results/BENCH_setup_scale.json.  Env knobs:
/// LDKE_BENCH_SETUP_SIZES (default analysis::kScaleSweepSizes, 2k … 1M),
/// LDKE_BENCH_SETUP_LANES (default 1,2,4,8), LDKE_BENCH_OUT.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>

#include "bench_common.hpp"
#include "support/stats.hpp"
#include "support/table.hpp"

namespace {

using namespace ldke;

constexpr double kDensity = 20.0;

/// One slow run used to move the 100k 4-lane speedup by a third, so every
/// point reports the median of three.
constexpr int kRunsPerPoint = 3;

/// What a child measures about its own run; piped to the parent as a
/// fixed-size record.
struct Run {
  double construct_s = 0.0;
  double setup_s = 0.0;
  double keys_per_node = 0.0;
  double realized_density = 0.0;
  std::uint64_t clusters = 0;
  std::uint64_t events = 0;
  long peak_rss_kb = 0;  ///< filled in by the parent from wait4
};

/// Runs one setup in a forked child; false when the child failed.
bool run_once(std::size_t nodes, std::size_t lanes, Run& out) {
  int fds[2];
  if (pipe(fds) != 0) return false;
  const pid_t pid = fork();
  if (pid < 0) return false;
  if (pid == 0) {
    close(fds[0]);
    Run r;
    {
      core::RunnerConfig cfg = bench::base_config();
      cfg.node_count = nodes;
      cfg.density = kDensity;
      cfg.kernel.lanes = lanes;
      const auto t0 = bench::Clock::now();
      core::ProtocolRunner runner{cfg};
      r.construct_s = bench::seconds_since(t0);
      const auto t1 = bench::Clock::now();
      runner.run_key_setup();
      r.setup_s = bench::seconds_since(t1);
      const auto m = core::collect_setup_metrics(runner);
      r.keys_per_node = m.mean_keys_per_node;
      r.realized_density = m.realized_density;
      r.clusters = m.cluster_count;
      r.events = runner.sim().events_executed();
    }
    const bool ok = write(fds[1], &r, sizeof(r)) == sizeof(r);
    close(fds[1]);
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  const bool got = read(fds[0], &out, sizeof(out)) == sizeof(out);
  close(fds[0]);
  int status = 0;
  struct rusage ru {};
  if (wait4(pid, &status, 0, &ru) != pid) return false;
  out.peak_rss_kb = ru.ru_maxrss;
  return got && WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

/// The median over \p runs of one field.
template <class T>
T median_of(const std::vector<Run>& runs, T Run::*field) {
  std::vector<T> values;
  for (const Run& r : runs) values.push_back(r.*field);
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// A grid point: its runs and their per-field medians.
struct Point {
  Point(std::size_t n, std::size_t l) : nodes(n), lanes(l) {}

  std::size_t nodes;
  std::size_t lanes;
  std::vector<Run> runs;
  Run median;
  bool runs_agree = true;  ///< simulated outputs identical across runs

  void summarize() {
    median = runs.front();
    median.construct_s = median_of(runs, &Run::construct_s);
    median.setup_s = median_of(runs, &Run::setup_s);
    median.peak_rss_kb = median_of(runs, &Run::peak_rss_kb);
    for (const Run& r : runs) {
      runs_agree = runs_agree && r.keys_per_node == median.keys_per_node &&
                   r.clusters == median.clusters && r.events == median.events;
    }
  }

  [[nodiscard]] double ms_per_kilonode() const {
    return median.setup_s * 1e6 / static_cast<double>(nodes);
  }
  [[nodiscard]] double rss_bytes_per_node() const {
    return static_cast<double>(median.peak_rss_kb) * 1024.0 /
           static_cast<double>(nodes);
  }

  [[nodiscard]] std::string setup_runs() const {
    std::string out;
    for (const Run& r : runs) {
      if (!out.empty()) out += ' ';
      out += support::fmt(r.setup_s, 2);
    }
    return out;
  }

  [[nodiscard]] obs::JsonValue to_json(double speedup) const {
    obs::JsonValue p;
    p.set("nodes", static_cast<std::uint64_t>(nodes));
    p.set("lanes", static_cast<std::uint64_t>(lanes));
    p.set("construct_s", median.construct_s);
    p.set("setup_s", median.setup_s);
    p.set("speedup", speedup);
    p.set("setup_ms_per_kilonode", ms_per_kilonode());
    p.set("peak_rss_kb", static_cast<std::int64_t>(median.peak_rss_kb));
    p.set("rss_bytes_per_node", rss_bytes_per_node());
    p.set("keys_per_node", median.keys_per_node);
    p.set("realized_density", median.realized_density);
    p.set("clusters", median.clusters);
    p.set("events", median.events);
    obs::JsonValue runs_json;
    for (const Run& r : runs) {
      obs::JsonValue run;
      run.set("construct_s", r.construct_s);
      run.set("setup_s", r.setup_s);
      run.set("peak_rss_kb", static_cast<std::int64_t>(r.peak_rss_kb));
      runs_json.push(std::move(run));
    }
    p.set("runs", std::move(runs_json));
    return p;
  }
};

}  // namespace

int main() {
  const std::vector<std::size_t> sizes =
      bench::env_list("LDKE_BENCH_SETUP_SIZES",
                      {analysis::kScaleSweepSizes.begin(),
                       analysis::kScaleSweepSizes.end()});
  const std::vector<std::size_t> lanes =
      bench::env_list("LDKE_BENCH_SETUP_LANES", {1, 2, 4, 8});
  if (sizes.empty() || lanes.empty()) {
    std::cerr << "empty grid: LDKE_BENCH_SETUP_SIZES and "
                 "LDKE_BENCH_SETUP_LANES each need a count\n";
    return 1;
  }
  obs::JsonValue doc = bench::artifact("setup_scale", 1);
  std::cout << "Setup scale: density-20 key setup, " << sizes.size()
            << " sizes x " << lanes.size() << " lane counts, "
            << kRunsPerPoint << " forked runs per point ("
            << doc.find("host")->int_at("cores") << " cores)\n\n";

  support::TextTable table({"nodes", "lanes", "construct (s)", "setup (s)",
                            "speedup", "ms/kilonode", "peak RSS (MB)",
                            "RSS/node (B)", "keys/node", "setup runs (s)"});
  obs::JsonValue points;
  bool identical = true;
  std::vector<double> keys_means;
  for (const std::size_t nodes : sizes) {
    std::vector<Point> row;
    for (const std::size_t l : lanes) row.emplace_back(nodes, l);
    for (int round = 0; round < kRunsPerPoint; ++round) {
      for (Point& p : row) {
        Run r;
        if (!run_once(p.nodes, p.lanes, r)) {
          std::cerr << "run failed: nodes=" << nodes << " lanes=" << p.lanes
                    << "\n";
          return 1;
        }
        p.runs.push_back(r);
      }
    }
    for (Point& p : row) p.summarize();
    const Run& first = row.front().median;
    for (const Point& p : row) {
      identical = identical && p.runs_agree &&
                  p.median.keys_per_node == first.keys_per_node &&
                  p.median.clusters == first.clusters;
      const double speedup =
          p.median.setup_s > 0.0 ? first.setup_s / p.median.setup_s : 0.0;
      table.add_row(
          {std::to_string(nodes), std::to_string(p.lanes),
           support::fmt(p.median.construct_s, 2),
           support::fmt(p.median.setup_s, 2), support::fmt(speedup, 2),
           support::fmt(p.ms_per_kilonode(), 1),
           support::fmt(static_cast<double>(p.median.peak_rss_kb) / 1024.0, 1),
           support::fmt(p.rss_bytes_per_node(), 0),
           support::fmt(p.median.keys_per_node, 3), p.setup_runs()});
      points.push(p.to_json(speedup));
    }
    keys_means.push_back(first.keys_per_node);
  }
  table.print(std::cout);

  // The size-invariance contract bench_scalability enforces, out to the
  // largest size of the grid.
  const double spread =
      (*std::max_element(keys_means.begin(), keys_means.end()) -
       *std::min_element(keys_means.begin(), keys_means.end())) /
      support::mean_of(keys_means);
  std::cout << "medians of " << kRunsPerPoint
            << " runs per point; setup metrics identical across runs and "
               "lane counts: "
            << (identical ? "yes" : "NO — DETERMINISM BROKEN")
            << "\nkeys/node spread across sizes: "
            << support::fmt(spread * 100.0, 1) << "% (gate: < 10%)\n";

  doc.set("density", kDensity);
  doc.set("runs_per_point", kRunsPerPoint);
  doc.set("identical", identical);
  doc.set("keys_per_node_spread", spread);
  doc.set("points", std::move(points));
  if (!bench::write_artifact(doc)) return 1;
  return identical && spread < 0.10 ? 0 : 1;
}
