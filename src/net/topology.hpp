#pragma once
/// \file topology.hpp
/// Node placement and the unit-disk communication graph.
///
/// A random deployment's ids follow space: random_uniform() draws the
/// positions, keeps the first draw as id 0 (the base station) and
/// numbers the others along a Hilbert curve over range-sized cells, so a
/// node's radio neighbors have nearby ids and id-indexed state (nodes,
/// energy, neighbor lists) is touched in cache-friendly runs.  The draw
/// order survives as deployment_order(): a loop that wants an arbitrary
/// order of nodes (round-robin sources, a rotation over clusters) walks
/// it, because an id loop now sweeps across the field.
/// from_positions() keeps the given order as ids, and add_node() (§IV-E)
/// appends.
///
/// The paper deploys "several thousands of nodes (2500 to 3600) in a
/// random topology" and controls the *density* — the average number of
/// neighbors per node.  For N nodes uniform in an L×L square with radio
/// range r, density ≈ N·πr²/L² (ignoring edge effects), so the range that
/// realizes a requested density is r = L·sqrt(d/(πN)).
///
/// One spatial index serves every query and both maintenance paths: a
/// grid of range-sized cells, each holding its nodes' (position, id)
/// entries contiguously in a slot of one pool.  A scan walks the cells
/// within its radius in one pass (3x3 at radio range), writing every
/// candidate and keeping those in range.  Bulk builds (construction,
/// update_positions) lay the cells and the neighbor lists out exact-fit;
/// apply_displacements() and add_node() patch both pools in O(movers),
/// growing a full slot into slack at the pool tail and compacting once
/// dead slack dominates.  The unit-disk identity (an edge flips only if
/// an endpoint moved) lets non-movers keep their lists except for
/// per-edge sorted patches, so both paths produce element-identical
/// sorted neighbor lists.

#include <cstdint>
#include <span>
#include <vector>

#include "net/vec2.hpp"
#include "support/rng.hpp"

namespace ldke::net {

using NodeId = std::uint32_t;

inline constexpr NodeId kNoNode = UINT32_MAX;

/// Placement + neighbor lists; grows through add_node() (§IV-E) and
/// moves through update_positions() / apply_displacements().
class Topology {
 public:
  /// Running totals for the incremental maintenance path (bench/CI
  /// telemetry: per-epoch cost should track movers, not N).
  struct MaintenanceStats {
    std::uint64_t incremental_epochs = 0;
    std::uint64_t movers_rescanned = 0;
    std::uint64_t cell_rebuckets = 0;
    std::uint64_t edges_added = 0;
    std::uint64_t edges_removed = 0;
    std::uint64_t slot_relocations = 0;  ///< neighbor-list and cell slots
    std::uint64_t pool_compactions = 0;  ///< of either pool
  };

  /// Deploys \p count nodes uniformly at random in a square of side
  /// \p side, with radio range \p range.  Ids 1.. follow the Hilbert
  /// curve; deployment_order() maps each draw to its id.
  static Topology random_uniform(std::size_t count, double side, double range,
                                 support::Xoshiro256& rng);

  /// Same, but chooses the range that yields the requested average
  /// density (mean neighbors per node).
  static Topology random_with_density(std::size_t count, double side,
                                      double density,
                                      support::Xoshiro256& rng);

  /// Builds from explicit positions (unit tests, worked examples).
  static Topology from_positions(std::vector<Vec2> positions, double range);

  [[nodiscard]] std::size_t size() const noexcept { return positions_.size(); }
  [[nodiscard]] double side() const noexcept { return side_; }
  [[nodiscard]] double range() const noexcept { return range_; }

  [[nodiscard]] Vec2 position(NodeId id) const { return positions_[id]; }

  /// The id of the i-th node placed at construction: the draw order of a
  /// random deployment, the identity for from_positions().  Nodes added
  /// later (add_node) are not in it; their ids start at its size().
  [[nodiscard]] std::span<const NodeId> deployment_order() const noexcept {
    return order_;
  }

  /// Ids of nodes within radio range of \p id (excluding \p id),
  /// ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId id) const {
    const Slot& slot = nbr_slots_[id];
    return {nbr_pool_.data() + slot.begin, slot.count};
  }

  /// Average neighbor count over all nodes (realized density).
  [[nodiscard]] double mean_degree() const noexcept;

  /// Nodes within \p radius of an arbitrary position (attacker
  /// transmissions, coverage queries).
  [[nodiscard]] std::vector<NodeId> nodes_within(Vec2 center,
                                                 double radius) const;

  [[nodiscard]] bool in_range(NodeId a, NodeId b) const {
    return distance_squared(positions_[a], positions_[b]) <= range_ * range_;
  }

  /// Deploys one more node at \p pos; updates neighbor lists on both
  /// sides.  Returns the new node's id.
  NodeId add_node(Vec2 pos);

  /// Bulk position update (full-rebuild mobility reference): replaces
  /// every node's position and rebuilds the grid index and neighbor
  /// lists from scratch, reusing the existing allocations.  \p positions
  /// must have exactly size() entries; positions are clamped to
  /// [0, side].
  void update_positions(std::span<const Vec2> positions);

  /// Incremental position update: \p moved lists the ids whose position
  /// changed this epoch (ascending, no duplicates) and \p new_positions
  /// their new coordinates, index-aligned with \p moved (clamped to
  /// [0, side]).  Cost is proportional to movers and their neighborhood
  /// churn, not to size(): a mover whose neighbor set did not change
  /// costs one scan and a membership check.  Produces neighbor lists
  /// element-identical to update_positions() with the equivalent full
  /// position array.
  void apply_displacements(std::span<const NodeId> moved,
                           std::span<const Vec2> new_positions);

  [[nodiscard]] std::span<const Vec2> positions() const noexcept {
    return positions_;
  }

  [[nodiscard]] const MaintenanceStats& maintenance_stats() const noexcept {
    return maint_;
  }

  /// Range that realizes \p density for \p count nodes in a square of
  /// side \p side (edge effects ignored).
  [[nodiscard]] static double range_for_density(std::size_t count, double side,
                                                double density) noexcept;

  /// Expected mean degree for the current placement (N·πr²/L², the
  /// density identity) — sizing hint for scans and reserves.
  [[nodiscard]] double expected_degree() const noexcept;

 private:
  /// A node's neighbor list or a grid cell's entries: pool[begin ..
  /// begin + count), with cap >= count places reserved.  Bulk builds lay
  /// slots out exact-fit (cap == count, zero waste); patches grow a full
  /// slot by relocating it to the pool tail with slack, leaving the old
  /// slot dead until the pool compacts.
  struct Slot {
    std::uint32_t begin = 0;
    std::uint32_t count = 0;
    std::uint32_t cap = 0;
  };

  /// A node as the spatial index holds it: a copy of its position
  /// beside its id, so a scan reads no other array.
  struct CellEntry {
    Vec2 pos;
    NodeId id = kNoNode;
  };

  Topology() = default;
  void rebuild_neighbor_lists();
  void index_into_grid();
  /// Appends \p entry to cell \p cell, relocating the cell's slot when
  /// it is full.
  void cell_append(std::size_t cell, CellEntry entry);
  /// Points entry_of_ at each of \p cell's entries after they moved.
  void index_entries(const Slot& cell);
  /// Writes the nodes within \p radius of \p center (minus \p exclude)
  /// to the front of \p out in index order, unsorted, and returns how
  /// many.  \p out is scratch: it grows, never shrinks, when a cell could
  /// overflow it, and what lies past the returned count is garbage.
  [[nodiscard]] std::size_t scan_into(std::vector<NodeId>& out, Vec2 center,
                                      double radius, NodeId exclude) const;
  /// scan_into() into a fresh vector, sorted ascending.
  [[nodiscard]] std::vector<NodeId> scan_neighbors(Vec2 center, double radius,
                                                   NodeId exclude) const;
  /// Writes \p ids (sorted) as \p id's neighbor list, relocating the
  /// slot when it no longer fits.
  void store_list(NodeId id, std::span<const NodeId> ids);
  /// Sorted insert/erase of \p other in \p id's list (one edge patch).
  void patch_insert(NodeId id, NodeId other);
  void patch_erase(NodeId id, NodeId other);

  std::vector<Vec2> positions_;
  std::vector<NodeId> order_;  ///< draw index -> id (deployment_order)
  // Neighbor lists, slotted in id order by bulk builds.
  std::vector<NodeId> nbr_pool_;
  std::vector<Slot> nbr_slots_;
  std::uint64_t total_degree_ = 0;
  double side_ = 1.0;
  double range_ = 0.1;

  // Spatial index, slotted the same way: each grid cell's (position, id)
  // entries, laid out in cell order by bulk builds.  A mover that stays
  // in its cell rewrites its entry in place; one that crosses a boundary
  // swap-erases it from the old cell and appends it to the new one.
  // Entry order within a cell never leaks: scans sort or compare by
  // membership.
  std::vector<CellEntry> cell_pool_;
  std::vector<Slot> cells_;
  std::vector<std::uint32_t> entry_of_;  ///< node id -> its cell_pool_ index
  std::size_t grid_dim_ = 0;
  [[nodiscard]] std::size_t cell_index(Vec2 pos) const noexcept;

  // Epoch-stamped mover membership for apply_displacements (O(1) "did
  // this endpoint move too?" checks without clearing a bitset per call).
  std::vector<std::uint32_t> mover_stamp_;
  std::uint32_t stamp_epoch_ = 0;
  std::vector<NodeId> scratch_old_;
  std::vector<NodeId> scratch_new_;
  // Spare buffers the pools compact into (double-buffered).
  std::vector<NodeId> compact_buf_;
  std::vector<CellEntry> cell_buf_;
  MaintenanceStats maint_;
};

}  // namespace ldke::net
