#pragma once
/// \file topology.hpp
/// Node placement and the unit-disk communication graph.
///
/// The paper deploys "several thousands of nodes (2500 to 3600) in a
/// random topology" and controls the *density* — the average number of
/// neighbors per node.  For N nodes uniform in an L×L square with radio
/// range r, density ≈ N·πr²/L² (ignoring edge effects), so the range that
/// realizes a requested density is r = L·sqrt(d/(πN)).
///
/// Two maintenance regimes share one query interface:
///  - Bulk builds (construction, update_positions) lay the neighbor
///    lists out exact-fit in one flat pool and index positions with a
///    counting-sort CSR grid — the cache-friendly path the static-setup
///    scale sweeps run on.
///  - apply_displacements() patches only what a mobility epoch actually
///    changed: movers are re-bucketed in a doubly-linked cell grid and
///    rescanned; the unit-disk identity (an edge flips only if an
///    endpoint moved) lets non-movers keep their lists except for
///    per-edge sorted patches.  Slots grow into slack at the pool tail
///    and the pool compacts double-buffered once dead slack dominates.
/// Both regimes produce element-identical sorted neighbor lists, so a
/// consumer cannot observe which one ran.

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
    std::uint64_t slot_relocations = 0;
    std::uint64_t pool_compactions = 0;
  };

  /// Deploys \p count nodes uniformly at random in a square of side
  /// \p side, with radio range \p range.
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

  /// Ids of nodes within radio range of \p id (excluding \p id),
  /// ascending.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId id) const {
    return {nbr_pool_.data() + nbr_begin_[id], nbr_count_[id]};
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
  /// churn, not to size().  Produces neighbor lists element-identical
  /// to update_positions() with the equivalent full position array.
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
  Topology() = default;
  void rebuild_neighbor_lists();
  void index_into_grid();
  void ensure_linked_grid();
  void grid_unlink(NodeId id);
  void grid_link(NodeId id, std::uint32_t cell);
  /// Appends nodes within \p radius of \p center (minus \p exclude) to
  /// \p out, sorted ascending; the range already in \p out is untouched.
  void scan_into(std::vector<NodeId>& out, Vec2 center, double radius,
                 NodeId exclude) const;
  [[nodiscard]] std::vector<NodeId> scan_neighbors(Vec2 center, double radius,
                                                   NodeId exclude) const;
  /// Writes \p ids (sorted) as \p id's neighbor list, relocating the
  /// slot to the pool tail with slack when it no longer fits.
  void store_list(NodeId id, std::span<const NodeId> ids);
  /// Sorted insert/erase of \p other in \p id's list (one edge patch).
  void patch_insert(NodeId id, NodeId other);
  void patch_erase(NodeId id, NodeId other);
  /// Rewrites the pool without dead slack once waste dominates
  /// (double-buffered: built in a scratch vector, then swapped in).
  void compact_pool();

  std::vector<Vec2> positions_;
  // Neighbor lists in slotted form: node id's neighbors live in
  // nbr_pool_[nbr_begin_[id] .. nbr_begin_[id] + nbr_count_[id]), with
  // nbr_cap_[id] >= nbr_count_[id] slots reserved.  Bulk builds lay the
  // slots out exact-fit in id order (cap == count, zero waste — the CSR
  // the static sweeps ran on); incremental patches grow a slot by
  // relocating it to the pool tail, leaving the old slot dead until
  // compact_pool() squeezes the waste out.
  std::vector<NodeId> nbr_pool_;
  std::vector<std::uint32_t> nbr_begin_;
  std::vector<std::uint32_t> nbr_count_;
  std::vector<std::uint32_t> nbr_cap_;
  std::uint64_t total_degree_ = 0;
  double side_ = 1.0;
  double range_ = 0.1;

  // Spatial index, one of two interchangeable shapes (scan_into sorts
  // its output, so per-cell iteration order never leaks):
  //  - CSR (grid_offsets_/grid_ids_): counting-sorted, cache-friendly,
  //    built by every bulk pass.
  //  - Doubly-linked cells (cell_head_/next_/prev_/cell_of_): O(1)
  //    re-bucket per mover, materialized lazily by the first
  //    apply_displacements()/add_node() and kept until the next bulk
  //    rebuild.
  std::vector<std::uint32_t> grid_offsets_;
  std::vector<NodeId> grid_ids_;
  std::vector<NodeId> cell_head_;
  std::vector<NodeId> grid_next_;
  std::vector<NodeId> grid_prev_;
  std::vector<std::uint32_t> cell_of_;
  bool grid_linked_ = false;
  std::size_t grid_dim_ = 0;
  [[nodiscard]] std::size_t cell_index(Vec2 pos) const noexcept;

  // Epoch-stamped mover membership for apply_displacements (O(1) "did
  // this endpoint move too?" checks without clearing a bitset per call).
  std::vector<std::uint32_t> mover_stamp_;
  std::uint32_t stamp_epoch_ = 0;
  std::vector<NodeId> scratch_old_;
  std::vector<NodeId> scratch_new_;
  std::vector<NodeId> scratch_patch_;
  std::vector<NodeId> compact_buf_;
  MaintenanceStats maint_;
};

}  // namespace ldke::net
