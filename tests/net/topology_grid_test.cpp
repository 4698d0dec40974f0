/// Property tests for the CSR grid index: every grid-accelerated scan
/// must agree exactly with the O(n²) brute-force unit-disk definition,
/// including configurations where the grid dimension is clamped (range
/// tiny relative to the side, so each scan covers many cells) and scans
/// centred exactly on cell boundaries.

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "net/topology.hpp"
#include "support/rng.hpp"

namespace ldke::net {
namespace {

std::vector<NodeId> brute_force_within(const Topology& topo, Vec2 center,
                                       double radius, NodeId exclude) {
  std::vector<NodeId> out;
  for (NodeId id = 0; id < topo.size(); ++id) {
    if (id == exclude) continue;
    if (distance_squared(center, topo.position(id)) <= radius * radius) {
      out.push_back(id);
    }
  }
  return out;
}

void expect_matches_brute_force(const Topology& topo) {
  for (NodeId id = 0; id < topo.size(); ++id) {
    const auto expected =
        brute_force_within(topo, topo.position(id), topo.range(), id);
    const auto got = topo.neighbors(id);
    ASSERT_EQ(std::vector<NodeId>(got.begin(), got.end()), expected)
        << "node " << id;
  }
}

TEST(TopologyGrid, RandomPlacementMatchesBruteForce) {
  support::Xoshiro256 rng{0x70b0};
  const auto topo = Topology::random_uniform(400, 100.0, 9.0, rng);
  expect_matches_brute_force(topo);
}

TEST(TopologyGrid, DensityPlacementMatchesBruteForce) {
  support::Xoshiro256 rng{0x70b1};
  const auto topo = Topology::random_with_density(500, 1000.0, 15.0, rng);
  expect_matches_brute_force(topo);
}

TEST(TopologyGrid, ClampedGridMatchesBruteForce) {
  // side/range = 2000 cells per axis unclamped; with 64 nodes the count
  // clamp caps the grid at ~2·sqrt(64) per axis, so every scan has to
  // walk a multi-cell neighborhood and filter by true distance.
  support::Xoshiro256 rng{0x70b2};
  const auto topo = Topology::random_uniform(64, 1000.0, 0.5, rng);
  expect_matches_brute_force(topo);

  // Denser clamped variant where nodes actually fall in range.
  support::Xoshiro256 rng2{0x70b3};
  const auto close = Topology::random_uniform(200, 10.0, 0.9, rng2);
  std::size_t total = 0;
  for (NodeId id = 0; id < close.size(); ++id) total += close.neighbors(id).size();
  EXPECT_GT(total, 0u);
  expect_matches_brute_force(close);
}

TEST(TopologyGrid, NodesWithinMatchesBruteForceAtArbitraryCenters) {
  support::Xoshiro256 rng{0x70b4};
  const auto topo = Topology::random_uniform(300, 100.0, 5.0, rng);
  for (int i = 0; i < 50; ++i) {
    const Vec2 center{rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)};
    const double radius = rng.uniform(0.1, 40.0);  // up to many cells wide
    EXPECT_EQ(topo.nodes_within(center, radius),
              brute_force_within(topo, center, radius, kNoNode));
  }
}

TEST(TopologyGrid, AddNodeSplicesBothSidesSorted) {
  support::Xoshiro256 rng{0x70b5};
  auto topo = Topology::random_uniform(150, 50.0, 6.0, rng);
  for (int i = 0; i < 10; ++i) {
    const Vec2 pos{rng.uniform(0.0, 50.0), rng.uniform(0.0, 50.0)};
    const NodeId id = topo.add_node(pos);
    EXPECT_EQ(id, 150u + static_cast<NodeId>(i));
  }
  expect_matches_brute_force(topo);
  for (NodeId id = 0; id < topo.size(); ++id) {
    const auto nbrs = topo.neighbors(id);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
}

/// Nodes on every half-cell lattice point of a \p dim x \p dim grid of
/// side \p side (so on every cell boundary, both field edges included,
/// and at whole-cell distances from each other), plus \p extra uniform
/// draws.  side * i / (2 * dim) keeps the outermost points at exactly
/// \p side, which pins side() and so the grid.
std::vector<Vec2> lattice_and_uniform(double side, int dim, int extra,
                                      support::Xoshiro256& rng) {
  std::vector<Vec2> out;
  for (int i = 0; i <= 2 * dim; ++i) {
    for (int j = 0; j <= 2 * dim; ++j) {
      out.push_back({side * i / (2 * dim), side * j / (2 * dim)});
    }
  }
  for (int k = 0; k < extra; ++k) {
    out.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return out;
}

/// Scans centred exactly on cell boundaries (x = k * cell or y = k *
/// cell, both field edges included) at radii of 0.5, 1, 2 and 3 cells,
/// so a stencil of 3x3 up to 7x7 cells, against the brute-force oracle.
void expect_boundary_scans_match(const Topology& topo, double cell, int dim,
                                 support::Xoshiro256& rng) {
  std::vector<Vec2> centers;
  for (int k = 0; k <= dim; ++k) {
    for (int j = 0; j <= dim; ++j) centers.push_back({k * cell, j * cell});
    centers.push_back({k * cell, rng.uniform(0.0, topo.side())});
    centers.push_back({rng.uniform(0.0, topo.side()), k * cell});
  }
  for (const double cells : {0.5, 1.0, 2.0, 3.0}) {
    const double radius = cells * cell;
    for (const Vec2 center : centers) {
      ASSERT_EQ(topo.nodes_within(center, radius),
                brute_force_within(topo, center, radius, kNoNode))
          << "center (" << center.x << ", " << center.y << ") radius "
          << cells << " cells";
    }
  }
  expect_matches_brute_force(topo);
}

TEST(TopologyGrid, CellBoundaryScansMatchBruteForceFreshAndAfterEpochs) {
  // (side, range) with side / range exact (4 m cells) and inexact
  // (37 / 9 m cells, as many deployments have); both give a 9- or
  // 10-cell grid, well under the count clamp.
  struct Field {
    double side;
    double range;
    int dim;
  };
  for (const Field f : {Field{40.0, 4.0, 10}, Field{37.0, 4.1, 9}}) {
    SCOPED_TRACE(::testing::Message() << "side " << f.side);
    support::Xoshiro256 rng{0x70b6};
    const double cell = f.side / f.dim;
    Topology topo = Topology::from_positions(
        lattice_and_uniform(f.side, f.dim, 200, rng), f.range);
    ASSERT_EQ(topo.side(), f.side);
    ASSERT_NO_FATAL_FAILURE(
        expect_boundary_scans_match(topo, cell, f.dim, rng));

    // Epochs that move every third node, each to a lattice point or a
    // uniform draw: movers re-bucket into cells whose exact-fit slots
    // must relocate, and boundary nodes stay on boundaries.
    for (int epoch = 0; epoch < 6; ++epoch) {
      std::vector<NodeId> moved;
      std::vector<Vec2> to;
      for (NodeId id = static_cast<NodeId>(epoch % 3); id < topo.size();
           id += 3) {
        moved.push_back(id);
        const int i = static_cast<int>(rng.uniform(0.0, 2.0 * f.dim + 1.0));
        const int j = static_cast<int>(rng.uniform(0.0, 2.0 * f.dim + 1.0));
        to.push_back(id % 2 == 0
                         ? Vec2{f.side * i / (2 * f.dim),
                                f.side * j / (2 * f.dim)}
                         : Vec2{rng.uniform(0.0, f.side),
                                rng.uniform(0.0, f.side)});
      }
      topo.apply_displacements(moved, to);
    }
    EXPECT_GT(topo.maintenance_stats().cell_rebuckets, 0u);
    EXPECT_GT(topo.maintenance_stats().slot_relocations, 0u);
    ASSERT_NO_FATAL_FAILURE(
        expect_boundary_scans_match(topo, cell, f.dim, rng));
  }
}

}  // namespace
}  // namespace ldke::net
