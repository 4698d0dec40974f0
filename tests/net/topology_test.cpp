#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

namespace ldke::net {
namespace {

TEST(Topology, FromPositionsBuildsExpectedNeighbors) {
  // Three colinear nodes 1m apart, range 1.5: middle sees both ends.
  auto topo = Topology::from_positions({{0, 0}, {1, 0}, {2, 0}}, 1.5);
  EXPECT_EQ(topo.size(), 3u);
  EXPECT_EQ(topo.neighbors(1).size(), 2u);
  EXPECT_EQ(topo.neighbors(0).size(), 1u);
  EXPECT_EQ(topo.neighbors(0)[0], 1u);
  EXPECT_EQ(topo.neighbors(2)[0], 1u);
}

TEST(Topology, NeighborsExcludeSelf) {
  auto topo = Topology::from_positions({{0, 0}, {0.1, 0}}, 1.0);
  for (NodeId id = 0; id < topo.size(); ++id) {
    const auto nbrs = topo.neighbors(id);
    EXPECT_EQ(std::count(nbrs.begin(), nbrs.end(), id), 0);
  }
}

TEST(Topology, NeighborRelationIsSymmetric) {
  support::Xoshiro256 rng{5};
  auto topo = Topology::random_uniform(300, 100.0, 12.0, rng);
  for (NodeId u = 0; u < topo.size(); ++u) {
    for (NodeId v : topo.neighbors(u)) {
      const auto nbrs = topo.neighbors(v);
      EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), u))
          << u << " <-> " << v;
    }
  }
}

TEST(Topology, GridMatchesBruteForce) {
  support::Xoshiro256 rng{17};
  auto topo = Topology::random_uniform(200, 50.0, 7.0, rng);
  const double r2 = topo.range() * topo.range();
  for (NodeId u = 0; u < topo.size(); ++u) {
    std::vector<NodeId> brute;
    for (NodeId v = 0; v < topo.size(); ++v) {
      if (v != u && distance_squared(topo.position(u), topo.position(v)) <= r2) {
        brute.push_back(v);
      }
    }
    const auto nbrs = topo.neighbors(u);
    EXPECT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()), brute);
  }
}

TEST(Topology, RangeForDensityInvertsDensityFormula) {
  const std::size_t n = 4000;
  const double side = 1000.0;
  const double density = 12.0;
  const double r = Topology::range_for_density(n, side, density);
  const double implied =
      static_cast<double>(n) * std::numbers::pi * r * r / (side * side);
  EXPECT_NEAR(implied, density, 1e-9);
}

TEST(Topology, RealizedDensityNearRequested) {
  support::Xoshiro256 rng{21};
  auto topo = Topology::random_with_density(3000, 1000.0, 15.0, rng);
  // Edge effects bias the realized mean degree slightly below target.
  EXPECT_NEAR(topo.mean_degree(), 15.0, 1.5);
}

TEST(Topology, HigherDensityMoreNeighbors) {
  support::Xoshiro256 rng1{3}, rng2{3};
  auto sparse = Topology::random_with_density(1000, 500.0, 8.0, rng1);
  auto dense = Topology::random_with_density(1000, 500.0, 20.0, rng2);
  EXPECT_GT(dense.mean_degree(), sparse.mean_degree());
}

TEST(Topology, NodesWithinFindsByRadius) {
  auto topo = Topology::from_positions({{0, 0}, {3, 0}, {10, 0}}, 1.0);
  const auto near = topo.nodes_within({0.5, 0.0}, 4.0);
  EXPECT_EQ(near, (std::vector<NodeId>{0, 1}));
  const auto all = topo.nodes_within({5.0, 0.0}, 100.0);
  EXPECT_EQ(all.size(), 3u);
}

TEST(Topology, AddNodeUpdatesBothSides) {
  auto topo = Topology::from_positions({{0, 0}, {5, 0}}, 2.0);
  EXPECT_TRUE(topo.neighbors(0).empty());
  const NodeId added = topo.add_node({1.0, 0.0});
  EXPECT_EQ(added, 2u);
  EXPECT_EQ(topo.size(), 3u);
  ASSERT_EQ(topo.neighbors(added).size(), 1u);
  EXPECT_EQ(topo.neighbors(added)[0], 0u);
  ASSERT_EQ(topo.neighbors(0).size(), 1u);
  EXPECT_EQ(topo.neighbors(0)[0], added);
  EXPECT_TRUE(topo.neighbors(1).empty());
}

TEST(Topology, AddNodeKeepsNeighborListsSorted) {
  auto topo = Topology::from_positions({{0, 0}, {0.5, 0}, {1.0, 0}}, 2.0);
  topo.add_node({0.25, 0.0});
  for (NodeId id = 0; id < topo.size(); ++id) {
    const auto nbrs = topo.neighbors(id);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
}

TEST(Topology, InRangeMatchesNeighborList) {
  support::Xoshiro256 rng{31};
  auto topo = Topology::random_uniform(100, 20.0, 4.0, rng);
  for (NodeId u = 0; u < topo.size(); ++u) {
    for (NodeId v = 0; v < topo.size(); ++v) {
      if (u == v) continue;
      const auto nbrs = topo.neighbors(u);
      const bool listed = std::binary_search(nbrs.begin(), nbrs.end(), v);
      EXPECT_EQ(listed, topo.in_range(u, v));
    }
  }
}

/// The positions random_uniform() draws, in draw order: the same RNG
/// calls on a copy of its stream.
std::vector<Vec2> raw_draws(std::size_t count, double side,
                            support::Xoshiro256& rng) {
  std::vector<Vec2> drawn;
  for (std::size_t i = 0; i < count; ++i) {
    drawn.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return drawn;
}

TEST(DeploymentOrder, RenumbersTheDrawsWithoutMovingThem) {
  const std::size_t n = 2000;
  const double side = 600.0;
  const double range = Topology::range_for_density(n, side, 12.0);
  support::Xoshiro256 rng{41};
  const Topology topo = Topology::random_uniform(n, side, range, rng);
  // The oracle: the unsorted deployment, ids in draw order.
  support::Xoshiro256 again{41};
  const std::vector<Vec2> drawn = raw_draws(n, side, again);
  EXPECT_EQ(rng.next(), again.next());  // same RNG calls
  const Topology oracle = Topology::from_positions(drawn, range);

  const auto order = topo.deployment_order();
  ASSERT_EQ(order.size(), n);
  EXPECT_EQ(order[0], 0u);  // the base station keeps the first draw
  std::vector<NodeId> ids(order.begin(), order.end());
  std::sort(ids.begin(), ids.end());
  for (NodeId id = 0; id < n; ++id) ASSERT_EQ(ids[id], id);  // a permutation

  std::size_t moved = 0;
  for (std::size_t draw = 0; draw < n; ++draw) {
    const NodeId id = order[draw];
    ASSERT_EQ(topo.position(id).x, drawn[draw].x);
    ASSERT_EQ(topo.position(id).y, drawn[draw].y);
    moved += id != draw ? 1 : 0;
    std::vector<NodeId> mapped;
    for (const NodeId v : oracle.neighbors(static_cast<NodeId>(draw))) {
      mapped.push_back(order[v]);
    }
    std::sort(mapped.begin(), mapped.end());
    const auto nbrs = topo.neighbors(id);
    ASSERT_EQ(std::vector<NodeId>(nbrs.begin(), nbrs.end()), mapped)
        << "draw " << draw;
  }
  EXPECT_GT(moved, n / 2);  // the labels really changed
  EXPECT_EQ(topo.mean_degree(), oracle.mean_degree());
}

TEST(DeploymentOrder, FromPositionsKeepsTheGivenOrder) {
  auto topo = Topology::from_positions({{5, 5}, {0, 0}, {9, 1}}, 2.0);
  const auto order = topo.deployment_order();
  EXPECT_EQ(std::vector<NodeId>(order.begin(), order.end()),
            (std::vector<NodeId>{0, 1, 2}));
  topo.add_node({1.0, 1.0});  // a joiner is not part of the deployment
  EXPECT_EQ(topo.deployment_order().size(), 3u);
}

/// Median |u - v| over the edges u < v, under the labelling \p label.
template <class Label>
std::uint64_t median_edge_gap(const Topology& topo, Label label) {
  std::vector<std::uint64_t> gaps;
  for (NodeId u = 0; u < topo.size(); ++u) {
    for (const NodeId v : topo.neighbors(u)) {
      if (u < v) {
        const std::uint64_t a = label(u);
        const std::uint64_t b = label(v);
        gaps.push_back(a > b ? a - b : b - a);
      }
    }
  }
  std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2, gaps.end());
  return gaps[gaps.size() / 2];
}

TEST(DeploymentOrder, RadioNeighborsGetNearbyIds) {
  const std::size_t n = 10000;
  const double side = 1000.0 * std::sqrt(n / 600.0);
  support::Xoshiro256 rng{1};
  const Topology topo = Topology::random_with_density(n, side, 12.0, rng);
  std::vector<std::uint64_t> draw_of(n);
  const auto order = topo.deployment_order();
  for (std::size_t draw = 0; draw < n; ++draw) draw_of[order[draw]] = draw;
  // Under draw-order labels (the unsorted deployment) an edge's ends are
  // a random pair: median gap 2,973 ids, near the 0.29 n of two uniform
  // draws.  Along the curve it is 6 ids.
  const std::uint64_t by_draw =
      median_edge_gap(topo, [&](NodeId id) { return draw_of[id]; });
  const std::uint64_t by_id = median_edge_gap(topo, [](NodeId id) {
    return static_cast<std::uint64_t>(id);
  });
  EXPECT_GT(by_draw, n / 5) << "the draw order is not the deployment's";
  EXPECT_LT(by_id, 20u) << "ids do not follow space";
}

TEST(Vec2, DistanceBasics) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance_squared({1, 1}, {1, 1}), 0.0);
}

}  // namespace
}  // namespace ldke::net
