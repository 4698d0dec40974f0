/// \file ldke_trace.cpp
/// Offline analyzer for the JSONL traces written by `ldke ... --trace`:
/// prints phase timelines, per-kind traffic tables, top talkers and
/// end-to-end DATA latency percentiles, all recomputed from the trace
/// alone (no access to the simulation needed).
///
///   ldke_trace <command> <trace.jsonl>
///   commands: summary | phases | traffic | talkers [-n k] | latency
///             | audit | health | all

#include <fstream>
#include <iostream>
#include <limits>
#include <string>
#include <string_view>

#include "obs/trace_reader.hpp"
#include "cli_parse.hpp"

namespace {

using namespace ldke;

int usage() {
  std::cerr <<
      "usage: ldke_trace <command> <trace.jsonl> [options]\n"
      "commands:\n"
      "  summary   run parameters, totals and the Fig 9 quantity\n"
      "  phases    per-phase windows with packet/byte attribution\n"
      "  traffic   whole-run traffic per packet kind\n"
      "  talkers   top senders by bytes (-n <k>, default 10)\n"
      "  latency   end-to-end DATA latency percentiles\n"
      "  audit     security-audit lifecycle: per-kind counts, timeline,\n"
      "            eviction -> re-key convergence\n"
      "  health    per-phase protocol-health gauges (secured links,\n"
      "            key-graph components, delivery, epoch skew)\n"
      "  all       every report above\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 3) return usage();
  const std::string_view command = argv[1];
  const char* path = argv[2];

  std::size_t top_n = 10;
  for (int i = 3; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg != "-n") {
      std::cerr << "ldke_trace: unknown option: " << arg << '\n';
      return 2;
    }
    const char* value = i + 1 < argc ? argv[++i] : nullptr;
    if (value == nullptr ||
        !cli::parse_value(std::string_view{value}, std::size_t{1},
                          std::numeric_limits<std::size_t>::max(), top_n)) {
      cli::report_bad_value("ldke_trace", "-n", "a count >= 1", value);
      return 2;
    }
  }

  std::ifstream in{path};
  if (!in) {
    std::cerr << "cannot open " << path << '\n';
    return 1;
  }
  const auto data = obs::load_trace(in);
  if (!data) {
    std::cerr << path << ": not a trace (missing meta record or newer "
              << "schema version)\n";
    return 1;
  }

  const bool all = command == "all";
  bool matched = false;
  if (all || command == "summary") {
    std::cout << obs::render_summary(*data);
    matched = true;
  }
  if (all || command == "phases") {
    std::cout << obs::render_phases(*data);
    matched = true;
  }
  if (all || command == "traffic") {
    std::cout << obs::render_traffic(*data);
    matched = true;
  }
  if (all || command == "talkers") {
    std::cout << obs::render_talkers(*data, top_n);
    matched = true;
  }
  if (all || command == "latency") {
    std::cout << obs::render_latency(*data);
    matched = true;
  }
  if (all || command == "audit") {
    std::cout << obs::render_audit(*data);
    matched = true;
  }
  if (all || command == "health") {
    std::cout << obs::render_health(*data);
    matched = true;
  }
  if (!matched) return usage();
  if (data->skipped_lines > 0) {
    std::cerr << "note: skipped " << data->skipped_lines
              << " unparseable/unknown lines\n";
  }
  return 0;
}
