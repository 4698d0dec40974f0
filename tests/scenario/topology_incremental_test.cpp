/// Property tests for the incremental topology-maintenance path:
/// Topology::apply_displacements driven by MobilityField::displacements
/// must stay element-identical to a from-scratch rebuild over long
/// random displacement sequences (waypoint and group mobility, cell
/// crossings, arena-edge clamping, §IV-E node additions), and its
/// flipped-edge counters must match the symmetric difference of the
/// edge sets.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "scenario/mobility.hpp"
#include "scenario/spec.hpp"
#include "support/rng.hpp"

namespace ldke::scenario {
namespace {

using net::NodeId;
using net::Topology;
using net::Vec2;

std::vector<Vec2> random_positions(std::size_t n, double side,
                                   std::uint64_t seed) {
  support::Xoshiro256 rng{seed};
  std::vector<Vec2> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  return out;
}

/// Every observable of the two topologies must agree exactly.
void expect_identical(const Topology& incremental, const Topology& reference,
                      int epoch) {
  ASSERT_EQ(incremental.size(), reference.size()) << "epoch " << epoch;
  EXPECT_DOUBLE_EQ(incremental.mean_degree(), reference.mean_degree())
      << "epoch " << epoch;
  for (NodeId id = 0; id < incremental.size(); ++id) {
    const Vec2 a = incremental.position(id);
    const Vec2 b = reference.position(id);
    ASSERT_TRUE(a == b) << "epoch " << epoch << " node " << id << " position";
    const auto na = incremental.neighbors(id);
    const auto nb = reference.neighbors(id);
    ASSERT_EQ(na.size(), nb.size()) << "epoch " << epoch << " node " << id;
    for (std::size_t k = 0; k < na.size(); ++k) {
      ASSERT_EQ(na[k], nb[k])
          << "epoch " << epoch << " node " << id << " slot " << k;
    }
  }
}

using EdgeSet = std::set<std::pair<NodeId, NodeId>>;

EdgeSet edge_set_of(const Topology& topo) {
  EdgeSet edges;
  for (NodeId u = 0; u < topo.size(); ++u) {
    for (const NodeId v : topo.neighbors(u)) {
      if (v > u) edges.emplace(u, v);
    }
  }
  return edges;
}

/// Number of edges in \p a that are absent from \p b.
std::size_t count_missing(const EdgeSet& a, const EdgeSet& b) {
  return static_cast<std::size_t>(
      std::count_if(a.begin(), a.end(), [&](const auto& e) {
        return b.count(e) == 0;
      }));
}

MotionConfig waypoint_config() {
  MotionConfig mc;
  mc.model = MotionModel::kRandomWaypoint;
  mc.epoch_s = 0.25;
  mc.speed_min_mps = 2.0;
  mc.speed_max_mps = 12.0;
  mc.pause_s = 0.4;
  return mc;
}

MotionConfig group_config() {
  MotionConfig mc;
  mc.model = MotionModel::kGroup;
  mc.epoch_s = 0.25;
  mc.speed_min_mps = 2.0;
  mc.speed_max_mps = 10.0;
  mc.pause_s = 0.3;
  mc.group_count = 8;
  mc.group_jitter_m = 2.5;
  return mc;
}

/// 100 epochs of a motion model: incremental vs full rebuild, plus the
/// per-epoch flipped-edge counts.  Speeds of up to 12 m/s at a 4 m
/// range and ~3 m cells guarantee plenty of cell-boundary crossings,
/// and waypoint targets near the walls exercise the arena-edge clamp.
void run_property(const MotionConfig& mc, std::uint64_t seed) {
  const double range = 4.0;
  const std::vector<Vec2> initial = random_positions(400, 50.0, seed);
  Topology incremental = Topology::from_positions(initial, range);
  Topology reference = Topology::from_positions(initial, range);
  MobilityField field{mc, incremental.side(), incremental.positions(),
                      seed ^ 0xf00d};
  EdgeSet edges = edge_set_of(reference);
  for (int epoch = 0; epoch < 100; ++epoch) {
    field.advance(mc.epoch_s);
    const MobilityField::Displacements delta = field.displacements();
    const Topology::MaintenanceStats before = incremental.maintenance_stats();
    incremental.apply_displacements(delta.ids, delta.positions);
    reference.update_positions(field.positions());
    expect_identical(incremental, reference, epoch);
    // Each flipped edge is counted exactly once, mover-mover pairs too.
    const EdgeSet next = edge_set_of(reference);
    const Topology::MaintenanceStats& after = incremental.maintenance_stats();
    ASSERT_EQ(after.edges_added - before.edges_added,
              count_missing(next, edges))
        << "epoch " << epoch;
    ASSERT_EQ(after.edges_removed - before.edges_removed,
              count_missing(edges, next))
        << "epoch " << epoch;
    edges = next;
  }
  EXPECT_EQ(incremental.maintenance_stats().incremental_epochs, 100u);
  // The locality claim itself: rescans track movers, not 100 * N.
  EXPECT_LT(incremental.maintenance_stats().movers_rescanned,
            100u * incremental.size());
}

TEST(TopologyIncremental, WaypointMatchesFullRebuildOver100Epochs) {
  run_property(waypoint_config(), 0x5eed01);
}

TEST(TopologyIncremental, GroupMobilityMatchesFullRebuildOver100Epochs) {
  run_property(group_config(), 0x5eed02);
}

TEST(TopologyIncremental, CellBoundaryAndArenaEdgeCrossings) {
  // side 40, range 4 -> 10x10 grid, 4 m cells.  Hand-placed moves cross
  // cell boundaries, jump across the arena, land exactly on the corner,
  // and overshoot past the wall (the clamp must match update_positions).
  std::vector<Vec2> initial;
  for (int i = 0; i < 60; ++i) {
    initial.push_back({static_cast<double>((i * 7) % 40),
                       static_cast<double>((i * 13) % 40)});
  }
  initial.push_back({40.0, 40.0});  // pins side() to 40
  Topology incremental = Topology::from_positions(initial, 4.0);
  Topology reference = Topology::from_positions(initial, 4.0);

  const std::vector<std::vector<std::pair<NodeId, Vec2>>> waves = {
      {{0, {3.9, 3.9}}, {1, {4.1, 4.1}}},     // hug vs cross a cell wall
      {{2, {39.99, 0.01}}, {3, {0.0, 40.0}}},  // arena corners
      {{0, {41.5, -2.0}}},                     // overshoot -> clamp
      {{4, {20.0, 20.0}}, {5, {20.1, 20.1}}, {6, {19.9, 20.3}}},  // pile-up
      {{4, {0.5, 0.5}}},                       // leave the pile
  };
  int epoch = 0;
  for (const auto& wave : waves) {
    std::vector<NodeId> ids;
    std::vector<Vec2> pos;
    for (const auto& [id, p] : wave) {
      ids.push_back(id);
      pos.push_back(p);
    }
    incremental.apply_displacements(ids, pos);
    // The reference applies the identical (clamped) move to all slots.
    std::vector<Vec2> all(reference.positions().begin(),
                          reference.positions().end());
    for (const auto& [id, p] : wave) {
      all[id] = {std::clamp(p.x, 0.0, reference.side()),
                 std::clamp(p.y, 0.0, reference.side())};
    }
    reference.update_positions(all);
    expect_identical(incremental, reference, epoch++);
  }
}

TEST(TopologyIncremental, AddNodeInterleavesWithIncrementalEpochs) {
  const MotionConfig mc = waypoint_config();
  const std::vector<Vec2> initial = random_positions(200, 40.0, 0x5eed03);
  Topology incremental = Topology::from_positions(initial, 4.0);
  Topology reference = Topology::from_positions(initial, 4.0);
  MobilityField field{mc, incremental.side(), incremental.positions(),
                      0x5eed04};
  support::Xoshiro256 rng{0x5eed05};
  for (int epoch = 0; epoch < 60; ++epoch) {
    if (epoch % 10 == 5) {  // §IV-E deployment between epochs
      const Vec2 pos{rng.uniform(0.0, incremental.side()),
                     rng.uniform(0.0, incremental.side())};
      field.add_node(pos);
      ASSERT_EQ(incremental.add_node(pos), reference.add_node(pos));
      expect_identical(incremental, reference, epoch);
    }
    field.advance(mc.epoch_s);
    const MobilityField::Displacements delta = field.displacements();
    incremental.apply_displacements(delta.ids, delta.positions);
    reference.update_positions(field.positions());
    expect_identical(incremental, reference, epoch);
  }
}

TEST(TopologyIncremental, NodesWithinMatchesBruteForceAfterIncrementalEpochs) {
  // nodes_within (attacker transmissions) reads the same cell index the
  // epochs patch: after 60 all-mobile epochs with additions among them,
  // with slots relocated and compacted along the way, it must still
  // agree with the unit-disk definition at arbitrary centers and radii.
  const double range = 4.0;
  const std::vector<Vec2> initial = random_positions(300, 50.0, 0x5eed07);
  Topology topo = Topology::from_positions(initial, range);
  MobilityField field{waypoint_config(), topo.side(), topo.positions(),
                      0x5eed08};
  support::Xoshiro256 rng{0x5eed09};
  for (int epoch = 0; epoch < 60; ++epoch) {
    if (epoch % 15 == 7) {
      const Vec2 pos{rng.uniform(0.0, topo.side()),
                     rng.uniform(0.0, topo.side())};
      field.add_node(pos);
      topo.add_node(pos);
    }
    field.advance(waypoint_config().epoch_s);
    const MobilityField::Displacements delta = field.displacements();
    topo.apply_displacements(delta.ids, delta.positions);
  }
  EXPECT_GT(topo.maintenance_stats().slot_relocations, 0u);
  EXPECT_GT(topo.maintenance_stats().pool_compactions, 0u);
  for (int i = 0; i < 50; ++i) {
    const Vec2 center{rng.uniform(0.0, topo.side()),
                      rng.uniform(0.0, topo.side())};
    const double radius = rng.uniform(0.1 * range, 10.0 * range);
    std::vector<NodeId> expected;
    for (NodeId id = 0; id < topo.size(); ++id) {
      if (net::distance_squared(center, topo.position(id)) <=
          radius * radius) {
        expected.push_back(id);
      }
    }
    EXPECT_EQ(topo.nodes_within(center, radius), expected)
        << "center (" << center.x << ", " << center.y << ") radius "
        << radius;
  }
}

TEST(TopologyIncremental, EmptyDisplacementEpochIsANoOp) {
  const std::vector<Vec2> initial = random_positions(50, 20.0, 0x5eed06);
  Topology incremental = Topology::from_positions(initial, 3.0);
  Topology reference = Topology::from_positions(initial, 3.0);
  incremental.apply_displacements({}, {});
  expect_identical(incremental, reference, 0);
}

}  // namespace
}  // namespace ldke::scenario
