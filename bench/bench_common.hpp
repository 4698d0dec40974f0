#pragma once
/// Shared plumbing for the benches: trial counts, the paper's node-count
/// scale and SeriesComparison assembly for the figure reproductions, and
/// for the JSON benches one way to read environment knobs, time a span
/// and write a `results/BENCH_<name>.json` artifact.

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/experiment.hpp"
#include "analysis/paper_data.hpp"
#include "analysis/report.hpp"
#include "core/runner.hpp"
#include "crypto/cpu_features.hpp"
#include "obs/json.hpp"
#include "support/thread_pool.hpp"

namespace ldke::bench {

// ---- environment knobs ------------------------------------------------------
// A knob that is unset, or whose value does not parse whole, keeps its
// default.

/// An integer count of at least \p min.
inline std::size_t env_count(const char* name, std::size_t fallback,
                             std::size_t min = 1) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  const std::string_view text{env};
  std::size_t v = 0;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  return ec == std::errc{} && end == text.data() + text.size() && v >= min
             ? v
             : fallback;
}

/// A number > 0.
inline double env_number(const char* name, double fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  char* end = nullptr;
  const double v = std::strtod(env, &end);
  return end != env && *end == '\0' && v > 0.0 ? v : fallback;
}

/// A comma list of counts >= 1 ("1,2,4"); an empty value is an empty
/// list, and an item that does not parse is dropped.
inline std::vector<std::size_t> env_list(const char* name,
                                         std::vector<std::size_t> fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  std::vector<std::size_t> out;
  std::string_view rest{env};
  while (!rest.empty()) {
    const std::size_t comma = std::min(rest.find(','), rest.size());
    const std::string_view item = rest.substr(0, comma);
    std::size_t v = 0;
    const auto [end, ec] =
        std::from_chars(item.data(), item.data() + item.size(), v);
    if (ec == std::errc{} && end == item.data() + item.size() && v >= 1) {
      out.push_back(v);
    }
    rest.remove_prefix(std::min(comma + 1, rest.size()));
  }
  return out;
}

/// Trials per sweep point; override with LDKE_BENCH_TRIALS for quick runs.
inline std::size_t trials() { return env_count("LDKE_BENCH_TRIALS", 10); }

/// Node count for the §V sweeps (paper: 2500–3600 deployed nodes).
inline std::size_t paper_node_count() {
  return env_count("LDKE_BENCH_NODES", 2500);
}

inline core::RunnerConfig base_config() {
  core::RunnerConfig cfg;
  cfg.side_m = 1000.0;
  cfg.seed = 0x5eed;
  return cfg;
}

// ---- timing -----------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---- artifacts --------------------------------------------------------------

/// A JSON artifact opened with the envelope every JSON bench shares:
/// schema_version, bench, seed and host{cores, aesni, sha_ni}.  The bench
/// appends its own members after these.
inline obs::JsonValue artifact(std::string_view name, int schema) {
  obs::JsonValue host;
  host.set("cores", std::max(1u, std::thread::hardware_concurrency()));
  host.set("aesni", crypto::detail::cpu_has_aesni());
  host.set("sha_ni", crypto::detail::cpu_has_sha_ni());
  obs::JsonValue doc;
  doc.set("schema_version", schema);
  doc.set("bench", name);
  doc.set("seed", base_config().seed);
  doc.set("host", std::move(host));
  return doc;
}

/// Writes \p doc to results/BENCH_<bench>.json, or to the path in
/// LDKE_BENCH_OUT when that is set; an empty LDKE_BENCH_OUT writes
/// nothing.  False when the file cannot be written.
inline bool write_artifact(const obs::JsonValue& doc) {
  const char* out_env = std::getenv("LDKE_BENCH_OUT");
  const std::string path =
      out_env != nullptr ? out_env
                         : "results/BENCH_" + doc.string_at("bench") + ".json";
  if (path.empty()) return true;
  std::ofstream os(path);
  if (!(os << doc.dump() << "\n")) {
    std::cerr << "cannot write " << path << "\n";
    return false;
  }
  std::cout << "wrote " << path << "\n";
  return true;
}

// ---- figure reproductions ---------------------------------------------------

/// Runs the §V density sweep once and hands back the aggregates.
inline std::vector<analysis::SetupAggregate> density_sweep() {
  support::ThreadPool pool;
  return analysis::run_density_sweep(
      base_config(), analysis::kPaperDensities, paper_node_count(), trials(),
      &pool);
}

template <typename Extract>
analysis::SeriesComparison compare(
    std::string title, const std::vector<analysis::SetupAggregate>& sweep,
    std::span<const double> paper, Extract&& extract) {
  analysis::SeriesComparison cmp;
  cmp.title = std::move(title);
  cmp.x_label = "density";
  for (const auto& point : sweep) {
    cmp.x.push_back(point.density);
    const support::RunningStats& stats = extract(point);
    cmp.measured.push_back(stats.mean());
    cmp.stderrs.push_back(stats.stderr_mean());
  }
  cmp.paper.assign(paper.begin(), paper.end());
  return cmp;
}

}  // namespace ldke::bench
