/// §VI resilience to node capture, quantified against the §III
/// baselines along two axes:
///
///   1. overall fraction of secure links (between uncaptured nodes) an
///      adversary can read after capturing x nodes, and
///   2. the *locality* of the damage — the same fraction restricted to
///      links more than three radio ranges away from every captured node
///      (3r is the exact geometric reach of a captured key set).
///
/// The paper's claim is the second axis: "compromised keys in one part
/// of the network do not allow an adversary to obtain access in some
/// other part of it".  LDKE's distant-link compromise is exactly zero;
/// random predistribution leaks distant links at a rate that grows with
/// x; the global key collapses everywhere after one capture.
///
/// One deployment and one capture sequence make one draw, and a single
/// draw's small-x rows move with which nodes fall first.  The bench runs
/// kDraws (deployment seed, capture seed) pairs, prints every cell as
/// median [min, max] over them, and requires each shape check to hold on
/// every draw.  Draw 0 is the base config's deployment with capture
/// seed 4242.

#include <algorithm>
#include <array>
#include <iostream>

#include "baselines/global_key.hpp"
#include "baselines/ldke_adapter.hpp"
#include "baselines/leap.hpp"
#include "baselines/pairwise.hpp"
#include "baselines/random_predist.hpp"
#include "bench_common.hpp"
#include "support/table.hpp"

namespace {

using namespace ldke;

constexpr std::size_t kDraws = 5;
constexpr std::array<std::size_t, 8> kCaptures = {0, 1, 2, 5, 10, 20, 35, 50};
constexpr std::size_t kSchemes = 5;  // LDKE, EG, q-composite, global, pairwise

/// One draw's fractions, [x index][scheme], for all links (a) and for
/// distant links only (b), and its shape checks.
struct Draw {
  using Table = std::array<std::array<double, kSchemes>, kCaptures.size()>;
  Table all{};
  Table distant{};
  bool global_collapses = false;
  bool ldke_distant_zero = false;
  bool eg_leaks_distant = false;
};

Draw run_draw(std::size_t draw) {
  core::RunnerConfig cfg = bench::base_config();
  cfg.node_count = bench::paper_node_count();
  cfg.density = 12.0;
  cfg.seed += draw;
  core::ProtocolRunner runner{cfg};
  runner.run_key_setup();
  baselines::LdkeAdapter ldke{runner};

  support::Xoshiro256 scheme_rng{999 + draw};
  baselines::GlobalKeyScheme global;
  baselines::PairwiseScheme pairwise;
  baselines::RandomPredistScheme eg{{10000, 83, 1}};
  baselines::RandomPredistScheme qcomp{{1000, 60, 2}};
  const auto& topo = runner.network().topology();
  global.setup(topo, scheme_rng);
  pairwise.setup(topo, scheme_rng);
  eg.setup(topo, scheme_rng);
  qcomp.setup(topo, scheme_rng);
  const std::array<const baselines::KeyScheme*, kSchemes> schemes = {
      &ldke, &eg, &qcomp, &global, &pairwise};

  support::Xoshiro256 capture_rng{4242 + draw};
  std::vector<net::NodeId> captured;
  auto grow_captures = [&](std::size_t x) {
    while (captured.size() < x) {
      const auto candidate = static_cast<net::NodeId>(
          capture_rng.uniform_u64(runner.node_count()));
      if (std::find(captured.begin(), captured.end(), candidate) ==
          captured.end()) {
        captured.push_back(candidate);
      }
    }
  };
  // Locality filter: both endpoints farther than 3r from every capture.
  // 3r is the exact geometric reach of a captured key set S: a revealed
  // bordering cluster's farthest member sits at most
  // r (capture->member) + r (member->head) + r (head->other member) away.
  const double far2 = 9.0 * topo.range() * topo.range();
  const baselines::KeyScheme::LinkFilter distant =
      [&](net::NodeId u, net::NodeId v) {
        for (net::NodeId c : captured) {
          if (net::distance_squared(topo.position(u), topo.position(c)) <
                  far2 ||
              net::distance_squared(topo.position(v), topo.position(c)) <
                  far2) {
            return false;
          }
        }
        return true;
      };

  Draw out;
  for (std::size_t i = 0; i < kCaptures.size(); ++i) {
    grow_captures(kCaptures[i]);
    for (std::size_t s = 0; s < kSchemes; ++s) {
      out.all[i][s] = schemes[s]->compromised_link_fraction(captured);
      out.distant[i][s] =
          schemes[s]->compromised_link_fraction(captured, &distant);
    }
  }
  const std::vector<net::NodeId> one_capture = {0};
  out.global_collapses = global.compromised_link_fraction(one_capture) == 1.0;
  double ldke_far_max = 0.0;
  double eg_far_max = 0.0;
  for (const auto& row : out.distant) {
    ldke_far_max = std::max(ldke_far_max, row[0]);
    eg_far_max = std::max(eg_far_max, row[1]);
  }
  out.ldke_distant_zero = ldke_far_max == 0.0;
  out.eg_leaks_distant = eg_far_max > 0.01;
  return out;
}

/// "median [min, max]" over the draws.
std::string spread(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return support::fmt(values[values.size() / 2]) + " [" +
         support::fmt(values.front()) + ", " + support::fmt(values.back()) +
         "]";
}

void print_table(const std::vector<Draw>& draws, Draw::Table Draw::*table) {
  support::TextTable out(
      {"captured", "LDKE", "EG", "q-composite", "global", "pairwise"});
  for (std::size_t i = 0; i < kCaptures.size(); ++i) {
    std::vector<std::string> row = {std::to_string(kCaptures[i])};
    for (std::size_t s = 0; s < kSchemes; ++s) {
      std::vector<double> values;
      for (const Draw& d : draws) values.push_back((d.*table)[i][s]);
      row.push_back(spread(std::move(values)));
    }
    out.add_row(row);
  }
  out.print(std::cout);
}

/// Prints one shape check with how many draws hold it; true if all do.
bool check(const std::vector<Draw>& draws, const char* what,
           bool Draw::*holds) {
  const auto held = static_cast<std::size_t>(std::count_if(
      draws.begin(), draws.end(), [&](const Draw& d) { return d.*holds; }));
  std::cout << "  " << what << ": " << (held == draws.size() ? "yes" : "NO")
            << " (" << held << "/" << draws.size() << " draws)\n";
  return held == draws.size();
}

}  // namespace

int main() {
  std::cout << "Resilience vs node capture, N=" << bench::paper_node_count()
            << ", density 12, " << kDraws
            << " (deployment seed, capture seed) draws; each cell is "
               "median [min, max]\n\n";
  std::vector<Draw> draws;
  for (std::size_t d = 0; d < kDraws; ++d) draws.push_back(run_draw(d));

  std::cout << "(a) all links between uncaptured nodes\n";
  print_table(draws, &Draw::all);
  std::cout << "\n(b) only links > 3 radio ranges from every captured node "
               "(the paper's locality claim)\n";
  print_table(draws, &Draw::distant);

  std::cout << "\nShape checks:\n";
  const bool global_collapses =
      check(draws, "global key collapses after one capture",
            &Draw::global_collapses);
  const bool ldke_distant_zero = check(
      draws, "LDKE never compromises a distant link", &Draw::ldke_distant_zero);
  const bool eg_leaks_distant =
      check(draws, "random predistribution leaks distant links",
            &Draw::eg_leaks_distant);
  return (global_collapses && ldke_distant_zero && eg_leaks_distant) ? 0 : 1;
}
