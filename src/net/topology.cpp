#include "net/topology.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numbers>

namespace ldke::net {

double Topology::range_for_density(std::size_t count, double side,
                                   double density) noexcept {
  return side * std::sqrt(density /
                          (std::numbers::pi * static_cast<double>(count)));
}

Topology Topology::random_uniform(std::size_t count, double side, double range,
                                  support::Xoshiro256& rng) {
  Topology topo;
  topo.side_ = side;
  topo.range_ = range;
  topo.positions_.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    topo.positions_.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  topo.index_into_grid();
  topo.rebuild_neighbor_lists();
  return topo;
}

Topology Topology::random_with_density(std::size_t count, double side,
                                       double density,
                                       support::Xoshiro256& rng) {
  return random_uniform(count, side, range_for_density(count, side, density),
                        rng);
}

Topology Topology::from_positions(std::vector<Vec2> positions, double range) {
  Topology topo;
  double side = 1.0;
  for (const Vec2& p : positions) side = std::max({side, p.x, p.y});
  topo.side_ = side;
  topo.range_ = range;
  topo.positions_ = std::move(positions);
  topo.index_into_grid();
  topo.rebuild_neighbor_lists();
  return topo;
}

std::size_t Topology::cell_index(Vec2 pos) const noexcept {
  const double cell = side_ / static_cast<double>(grid_dim_);
  auto clamp_dim = [this](double v) {
    auto idx = static_cast<std::size_t>(v);
    return std::min(idx, grid_dim_ - 1);
  };
  const std::size_t cx = clamp_dim(pos.x / cell);
  const std::size_t cy = clamp_dim(pos.y / cell);
  return cy * grid_dim_ + cx;
}

double Topology::expected_degree() const noexcept {
  if (positions_.empty() || side_ <= 0.0) return 0.0;
  return static_cast<double>(positions_.size()) * std::numbers::pi * range_ *
         range_ / (side_ * side_);
}

void Topology::index_into_grid() {
  const std::size_t n = positions_.size();
  grid_dim_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(side_ / std::max(range_, 1e-9)));
  // A grid finer than ~2·sqrt(N) cells per axis leaves most cells empty
  // while the offsets array alone would dwarf the id data, so clamp the
  // cell count to O(N) (neighbor scans just cover more cells per query).
  const auto count_clamp =
      static_cast<std::size_t>(
          2.0 * std::sqrt(static_cast<double>(std::max<std::size_t>(n, 1)))) +
      1;
  grid_dim_ = std::min(grid_dim_, std::min<std::size_t>(count_clamp, 4096));
  // Counting sort into CSR: per-cell counts, prefix sums, then a fill
  // pass in id order (which keeps every cell's ids ascending).
  grid_offsets_.assign(grid_dim_ * grid_dim_ + 1, 0);
  for (const Vec2& pos : positions_) ++grid_offsets_[cell_index(pos) + 1];
  for (std::size_t c = 1; c < grid_offsets_.size(); ++c) {
    grid_offsets_[c] += grid_offsets_[c - 1];
  }
  grid_ids_.resize(n);
  std::vector<std::uint32_t> cursor(grid_offsets_.begin(),
                                    grid_offsets_.end() - 1);
  for (NodeId id = 0; id < n; ++id) {
    grid_ids_[cursor[cell_index(positions_[id])]++] = id;
  }
  // Any linked-cell index is stale now; the next incremental pass
  // rebuilds it lazily.
  grid_linked_ = false;
}

void Topology::ensure_linked_grid() {
  if (grid_linked_) return;
  const std::size_t n = positions_.size();
  cell_head_.assign(grid_dim_ * grid_dim_, kNoNode);
  grid_next_.assign(n, kNoNode);
  grid_prev_.assign(n, kNoNode);
  cell_of_.resize(n);
  // Push-front in descending id order so every cell list comes out
  // ascending — not required (scan_into sorts) but keeps walks and the
  // CSR twin visually comparable when debugging.
  for (NodeId id = static_cast<NodeId>(n); id-- > 0;) {
    const auto c = static_cast<std::uint32_t>(cell_index(positions_[id]));
    cell_of_[id] = c;
    grid_link(id, c);
  }
  grid_linked_ = true;
}

void Topology::grid_link(NodeId id, std::uint32_t cell) {
  cell_of_[id] = cell;
  grid_prev_[id] = kNoNode;
  grid_next_[id] = cell_head_[cell];
  if (cell_head_[cell] != kNoNode) grid_prev_[cell_head_[cell]] = id;
  cell_head_[cell] = id;
}

void Topology::grid_unlink(NodeId id) {
  const NodeId prev = grid_prev_[id];
  const NodeId next = grid_next_[id];
  if (prev != kNoNode) {
    grid_next_[prev] = next;
  } else {
    cell_head_[cell_of_[id]] = next;
  }
  if (next != kNoNode) grid_prev_[next] = prev;
}

void Topology::scan_into(std::vector<NodeId>& out, Vec2 center, double radius,
                         NodeId exclude) const {
  const std::size_t first = out.size();
  const double cell = side_ / static_cast<double>(grid_dim_);
  const double r2 = radius * radius;
  const int reach = static_cast<int>(std::ceil(radius / cell));
  const int cx = static_cast<int>(center.x / cell);
  const int cy = static_cast<int>(center.y / cell);
  const int dim = static_cast<int>(grid_dim_);
  for (int gy = std::max(0, cy - reach); gy <= std::min(dim - 1, cy + reach);
       ++gy) {
    for (int gx = std::max(0, cx - reach); gx <= std::min(dim - 1, cx + reach);
         ++gx) {
      const std::size_t c = static_cast<std::size_t>(gy) * grid_dim_ +
                            static_cast<std::size_t>(gx);
      if (grid_linked_) {
        for (NodeId other = cell_head_[c]; other != kNoNode;
             other = grid_next_[other]) {
          if (other == exclude) continue;
          if (distance_squared(center, positions_[other]) <= r2) {
            out.push_back(other);
          }
        }
      } else {
        for (std::uint32_t i = grid_offsets_[c]; i < grid_offsets_[c + 1];
             ++i) {
          const NodeId other = grid_ids_[i];
          if (other == exclude) continue;
          if (distance_squared(center, positions_[other]) <= r2) {
            out.push_back(other);
          }
        }
      }
    }
  }
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

std::vector<NodeId> Topology::scan_neighbors(Vec2 center, double radius,
                                             NodeId exclude) const {
  std::vector<NodeId> out;
  out.reserve(static_cast<std::size_t>(expected_degree()) + 8);
  scan_into(out, center, radius, exclude);
  return out;
}

void Topology::rebuild_neighbor_lists() {
  const std::size_t n = positions_.size();
  const double degree = expected_degree();
  nbr_begin_.resize(n);
  nbr_count_.resize(n);
  nbr_cap_.resize(n);
  nbr_pool_.clear();
  nbr_pool_.reserve(
      static_cast<std::size_t>(static_cast<double>(n) * (degree + 1.0)));
  // One scratch buffer for every scan instead of a fresh vector per node.
  std::vector<NodeId> scratch;
  scratch.reserve(static_cast<std::size_t>(degree * 2.0) + 8);
  total_degree_ = 0;
  for (NodeId id = 0; id < n; ++id) {
    scratch.clear();
    scan_into(scratch, positions_[id], range_, id);
    nbr_begin_[id] = static_cast<std::uint32_t>(nbr_pool_.size());
    const auto deg = static_cast<std::uint32_t>(scratch.size());
    nbr_count_[id] = deg;
    nbr_cap_[id] = deg;  // exact fit: bulk layout carries zero slack
    nbr_pool_.insert(nbr_pool_.end(), scratch.begin(), scratch.end());
    total_degree_ += deg;
  }
  nbr_pool_.shrink_to_fit();
}

double Topology::mean_degree() const noexcept {
  if (positions_.empty()) return 0.0;
  return static_cast<double>(total_degree_) /
         static_cast<double>(positions_.size());
}

std::vector<NodeId> Topology::nodes_within(Vec2 center, double radius) const {
  return scan_neighbors(center, radius, kNoNode);
}

void Topology::update_positions(std::span<const Vec2> positions) {
  // The full-rebuild reference: overwrite every position, then rebuild
  // the grid and all neighbor lists from scratch, reusing allocations.
  positions_.assign(positions.begin(), positions.end());
  for (Vec2& p : positions_) {
    p.x = std::clamp(p.x, 0.0, side_);
    p.y = std::clamp(p.y, 0.0, side_);
  }
  index_into_grid();
  rebuild_neighbor_lists();
}

void Topology::store_list(NodeId id, std::span<const NodeId> ids) {
  if (ids.size() <= nbr_cap_[id]) {
    std::copy(ids.begin(), ids.end(),
              nbr_pool_.begin() + static_cast<std::ptrdiff_t>(nbr_begin_[id]));
  } else {
    // Relocate to the pool tail with slack so the next few inserts stay
    // in place; the old slot is dead weight until compact_pool().
    const auto cap =
        static_cast<std::uint32_t>(ids.size() + ids.size() / 2 + 4);
    nbr_begin_[id] = static_cast<std::uint32_t>(nbr_pool_.size());
    nbr_cap_[id] = cap;
    nbr_pool_.insert(nbr_pool_.end(), ids.begin(), ids.end());
    nbr_pool_.resize(nbr_pool_.size() + (cap - ids.size()), kNoNode);
    ++maint_.slot_relocations;
  }
  total_degree_ += ids.size();
  total_degree_ -= nbr_count_[id];
  nbr_count_[id] = static_cast<std::uint32_t>(ids.size());
}

void Topology::patch_insert(NodeId id, NodeId other) {
  if (nbr_count_[id] == nbr_cap_[id]) {
    const auto list = neighbors(id);
    scratch_patch_.assign(list.begin(), list.end());
    scratch_patch_.insert(
        std::upper_bound(scratch_patch_.begin(), scratch_patch_.end(), other),
        other);
    store_list(id, scratch_patch_);
    return;
  }
  const auto begin =
      nbr_pool_.begin() + static_cast<std::ptrdiff_t>(nbr_begin_[id]);
  const auto end = begin + nbr_count_[id];
  const auto pos = std::upper_bound(begin, end, other);
  std::copy_backward(pos, end, end + 1);
  *pos = other;
  ++nbr_count_[id];
  ++total_degree_;
}

void Topology::patch_erase(NodeId id, NodeId other) {
  const auto begin =
      nbr_pool_.begin() + static_cast<std::ptrdiff_t>(nbr_begin_[id]);
  const auto end = begin + nbr_count_[id];
  const auto pos = std::lower_bound(begin, end, other);
  assert(pos != end && *pos == other);
  std::copy(pos + 1, end, pos);
  --nbr_count_[id];
  --total_degree_;
}

void Topology::compact_pool() {
  // Double-buffered rewrite: lay every live slot out in id order in the
  // spare buffer (a couple of slack entries each so fresh patches do not
  // immediately relocate again), then swap the buffers.
  const std::size_t n = positions_.size();
  compact_buf_.clear();
  compact_buf_.reserve(total_degree_ + 2 * n);
  for (NodeId id = 0; id < n; ++id) {
    const auto list = neighbors(id);
    nbr_begin_[id] = static_cast<std::uint32_t>(compact_buf_.size());
    nbr_cap_[id] = static_cast<std::uint32_t>(list.size() + 2);
    compact_buf_.insert(compact_buf_.end(), list.begin(), list.end());
    compact_buf_.push_back(kNoNode);
    compact_buf_.push_back(kNoNode);
  }
  std::swap(nbr_pool_, compact_buf_);
  ++maint_.pool_compactions;
}

void Topology::apply_displacements(std::span<const NodeId> moved,
                                   std::span<const Vec2> new_positions) {
  assert(moved.size() == new_positions.size());
  ++maint_.incremental_epochs;
  if (moved.empty()) return;
  ensure_linked_grid();
  if (mover_stamp_.size() < positions_.size()) {
    mover_stamp_.resize(positions_.size(), 0);
  }
  ++stamp_epoch_;
  if (stamp_epoch_ == 0) {  // wrapped: stamps are ambiguous, reset them
    std::fill(mover_stamp_.begin(), mover_stamp_.end(), 0);
    stamp_epoch_ = 1;
  }
  // Phase 1: commit every mover's position and re-bucket cell crossers,
  // so phase 2's scans all see the epoch's final geometry.
  for (std::size_t i = 0; i < moved.size(); ++i) {
    const NodeId id = moved[i];
    Vec2 p = new_positions[i];
    p.x = std::clamp(p.x, 0.0, side_);
    p.y = std::clamp(p.y, 0.0, side_);
    positions_[id] = p;
    mover_stamp_[id] = stamp_epoch_;
    const auto c = static_cast<std::uint32_t>(cell_index(p));
    if (c != cell_of_[id]) {
      grid_unlink(id);
      grid_link(id, c);
      ++maint_.cell_rebuckets;
    }
  }
  // Phase 2: a unit-disk edge flips only if an endpoint moved, so
  // rescanning the movers covers every change.  Diffing a mover's new
  // list against its old one yields the flipped edges; non-mover
  // endpoints get a sorted one-element patch, mover endpoints rebuild
  // their own lists anyway.  Mover-mover flips surface in both scans
  // and are counted once (from the lower id).
  for (const NodeId m : moved) {
    const auto old_list = neighbors(m);
    scratch_old_.assign(old_list.begin(), old_list.end());
    scratch_new_.clear();
    scan_into(scratch_new_, positions_[m], range_, m);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < scratch_old_.size() || j < scratch_new_.size()) {
      if (j == scratch_new_.size() ||
          (i < scratch_old_.size() && scratch_old_[i] < scratch_new_[j])) {
        const NodeId v = scratch_old_[i++];
        const bool v_moved = mover_stamp_[v] == stamp_epoch_;
        if (!v_moved) patch_erase(v, m);
        if (!v_moved || v > m) ++maint_.edges_removed;
      } else if (i == scratch_old_.size() ||
                 scratch_new_[j] < scratch_old_[i]) {
        const NodeId v = scratch_new_[j++];
        const bool v_moved = mover_stamp_[v] == stamp_epoch_;
        if (!v_moved) patch_insert(v, m);
        if (!v_moved || v > m) ++maint_.edges_added;
      } else {
        ++i;
        ++j;
      }
    }
    store_list(m, scratch_new_);
    ++maint_.movers_rescanned;
  }
  // Compact once dead slots and slack outweigh live data.
  if (nbr_pool_.size() > 1024 && nbr_pool_.size() > 2 * total_degree_) {
    compact_pool();
  }
}

NodeId Topology::add_node(Vec2 pos) {
  const auto id = static_cast<NodeId>(positions_.size());
  positions_.push_back(pos);
  // Keep the spatial index in the O(1)-insert linked shape; when the
  // CSR twin was active this converts it (one linear pass, cheaper than
  // the old per-edge CSR splicing ever was).
  if (!grid_linked_) {
    ensure_linked_grid();  // covers the freshly pushed node too
  } else {
    grid_next_.push_back(kNoNode);
    grid_prev_.push_back(kNoNode);
    cell_of_.push_back(0);
    grid_link(id, static_cast<std::uint32_t>(cell_index(pos)));
  }
  if (!mover_stamp_.empty()) mover_stamp_.push_back(0);
  const std::vector<NodeId> nbrs = scan_neighbors(pos, range_, id);
  for (const NodeId neighbor : nbrs) patch_insert(neighbor, id);
  nbr_begin_.push_back(static_cast<std::uint32_t>(nbr_pool_.size()));
  nbr_count_.push_back(0);
  nbr_cap_.push_back(0);
  store_list(id, nbrs);
  return id;
}

}  // namespace ldke::net
