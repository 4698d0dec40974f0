/// \file ldke_viz.cpp
/// Renders a deployment after key setup as a standalone SVG: nodes
/// colored by cluster, heads ringed, radio edges faint, the base station
/// marked.  Handy for eyeballing what the election produced (the
/// paper's Figure 2, generated instead of hand-drawn).
///
///   $ ./ldke_viz out.svg [node_count] [density] [seed]

#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <string>

#include "core/metrics.hpp"
#include "core/runner.hpp"
#include "support/table.hpp"
#include "cli_parse.hpp"

namespace {

using namespace ldke;

/// Deterministic distinct-ish color per cluster id (golden-angle hue).
std::string cluster_color(core::ClusterId cid) {
  const double hue = std::fmod(static_cast<double>(cid) * 137.50776, 360.0);
  return "hsl(" + std::to_string(static_cast<int>(hue)) + ",70%,55%)";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: ldke_viz <out.svg> [nodes] [density] [seed]\n";
    return 2;
  }
  core::RunnerConfig cfg;
  cfg.node_count = 400;
  cfg.density = 12.0;
  cfg.side_m = 500.0;
  cfg.seed = 7;
  // Each positional value is taken whole and in range, or named in one
  // line with exit status 2 before anything is built.
  bool ok = true;
  auto positional = [&](int index, const char* name, auto& out, auto lo,
                        auto hi, const char* want) {
    if (!ok || argc <= index) return;
    ok = cli::parse_value(argv[index], lo, hi, out);
    if (!ok) cli::report_bad_value("ldke_viz", name, want, argv[index]);
  };
  positional(2, "nodes", cfg.node_count, std::size_t{1},
             std::size_t{std::numeric_limits<net::NodeId>::max()},
             "a node count from 1 to 4294967295");
  positional(3, "density", cfg.density,
             std::numeric_limits<double>::denorm_min(),
             std::numeric_limits<double>::max(), "a density > 0");
  positional(4, "seed", cfg.seed, std::uint64_t{0},
             std::numeric_limits<std::uint64_t>::max(),
             "an integer seed >= 0");
  if (!ok) return 2;

  core::ProtocolRunner runner{cfg};
  runner.run_key_setup();
  const auto metrics = core::collect_setup_metrics(runner);
  const auto& topo = runner.network().topology();

  const double kScale = 2.0;
  const double kMargin = 20.0;
  const double canvas = cfg.side_m * kScale + 2 * kMargin;
  auto sx = [&](double v) { return kMargin + v * kScale; };

  std::ofstream svg{argv[1]};
  if (!svg) {
    std::cerr << "cannot open " << argv[1] << '\n';
    return 1;
  }
  svg << "<svg xmlns='http://www.w3.org/2000/svg' width='" << canvas
      << "' height='" << canvas + 30 << "' viewBox='0 0 " << canvas << ' '
      << canvas + 30 << "'>\n"
      << "<rect width='100%' height='100%' fill='#fafafa'/>\n";

  // Radio edges (faint).
  svg << "<g stroke='#000' stroke-opacity='0.06' stroke-width='0.6'>\n";
  for (net::NodeId u = 0; u < topo.size(); ++u) {
    for (net::NodeId v : topo.neighbors(u)) {
      if (u >= v) continue;
      const auto a = topo.position(u);
      const auto b = topo.position(v);
      svg << "<line x1='" << sx(a.x) << "' y1='" << sx(a.y) << "' x2='"
          << sx(b.x) << "' y2='" << sx(b.y) << "'/>\n";
    }
  }
  svg << "</g>\n";

  // Member -> head spokes (cluster structure).
  svg << "<g stroke-width='1.1' stroke-opacity='0.45'>\n";
  for (net::NodeId id = 0; id < runner.node_count(); ++id) {
    const core::ClusterId cid = runner.node(id).cid();
    if (cid == core::kNoCluster || cid == id) continue;
    const auto a = topo.position(id);
    const auto b = topo.position(cid);
    svg << "<line x1='" << sx(a.x) << "' y1='" << sx(a.y) << "' x2='"
        << sx(b.x) << "' y2='" << sx(b.y) << "' stroke='"
        << cluster_color(cid) << "'/>\n";
  }
  svg << "</g>\n";

  // Nodes.
  for (net::NodeId id = 0; id < runner.node_count(); ++id) {
    const auto p = topo.position(id);
    const core::ClusterId cid = runner.node(id).cid();
    const bool head = runner.node(id).was_head();
    svg << "<circle cx='" << sx(p.x) << "' cy='" << sx(p.y) << "' r='"
        << (head ? 4.0 : 2.4) << "' fill='" << cluster_color(cid) << "'";
    if (head) svg << " stroke='#222' stroke-width='1.4'";
    if (id == 0) svg << " stroke='#c00' stroke-width='2.5'";
    svg << "/>\n";
  }

  svg << "<text x='" << kMargin << "' y='" << canvas + 20
      << "' font-family='monospace' font-size='12'>" << cfg.node_count
      << " nodes, density " << cfg.density << " | " << metrics.cluster_count
      << " clusters, head fraction "
      << support::fmt(metrics.head_fraction, 3)
      << " | ringed = head, red ring = base station</text>\n";
  svg << "</svg>\n";

  std::cout << "wrote " << argv[1] << " (" << metrics.cluster_count
            << " clusters over " << cfg.node_count << " nodes)\n";
  return 0;
}
