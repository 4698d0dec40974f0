#include "net/topology.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <numbers>
#include <numeric>

namespace ldke::net {
namespace {

/// Moves \p slot to the tail of \p pool with room for \p need entries
/// plus slack, so the next few growths stay in place; the old slot is
/// dead weight until the pool compacts.
template <class T, class Slot>
void relocate(std::vector<T>& pool, Slot& slot, std::size_t need) {
  const auto begin = static_cast<std::uint32_t>(pool.size());
  const auto cap = static_cast<std::uint32_t>(need + need / 2 + 4);
  pool.resize(pool.size() + cap);
  std::copy_n(pool.begin() + slot.begin, slot.count, pool.begin() + begin);
  slot.begin = begin;
  slot.cap = cap;
}

/// Rewrites \p pool without dead slots, double-buffered through \p buf:
/// every slot in order, with two slack places each so fresh patches do
/// not immediately relocate again.
template <class T, class Slot>
void compact(std::vector<T>& pool, std::vector<T>& buf,
             std::vector<Slot>& slots) {
  std::size_t size = 2 * slots.size();
  for (const Slot& slot : slots) size += slot.count;
  buf.clear();
  buf.reserve(size);
  for (Slot& slot : slots) {
    const auto begin = static_cast<std::uint32_t>(buf.size());
    buf.insert(buf.end(), pool.begin() + slot.begin,
               pool.begin() + slot.begin + slot.count);
    buf.resize(buf.size() + 2);
    slot.begin = begin;
    slot.cap = slot.count + 2;
  }
  std::swap(pool, buf);
}

/// Index of cell (\p x, \p y) along the Hilbert curve that fills a
/// 2^\p order x 2^\p order grid: consecutive indices are edge-adjacent
/// cells.  One step per bit of the grid side, each without a branch
/// (random cells would mispredict every one).
std::uint32_t hilbert_index(std::uint32_t x, std::uint32_t y, int order) {
  std::uint32_t d = 0;
  for (int bit = order - 1; bit >= 0; --bit) {
    const std::uint32_t rx = (x >> bit) & 1;
    const std::uint32_t ry = (y >> bit) & 1;
    d = d << 2 | ((3 * rx) ^ ry);
    // Rotate the quadrant so the curve stays connected: in the lower
    // quadrants (ry == 0) reflect when rx == 1, then swap x and y.  Only
    // the bits below `bit` matter from here on.
    const std::uint32_t reflect = 0u - (rx & (ry ^ 1));
    x ^= reflect;
    y ^= reflect;
    const std::uint32_t swap = (x ^ y) & (0u - (ry ^ 1));
    x ^= swap;
    y ^= swap;
  }
  return d;
}

/// Sorts \p keys by their upper 32 bits, keeping the order of equal
/// ones: least-significant-digit radix over the 16-bit digits below
/// bit 32 + \p bits.
void radix_sort_by_high_word(std::vector<std::uint64_t>& keys, int bits) {
  std::vector<std::uint64_t> buf(keys.size());
  std::vector<std::uint32_t> start(std::size_t{1} << 16);
  for (int shift = 32; shift < 32 + bits; shift += 16) {
    std::fill(start.begin(), start.end(), 0);
    for (const std::uint64_t key : keys) ++start[(key >> shift) & 0xffff];
    std::exclusive_scan(start.begin(), start.end(), start.begin(), 0u);
    for (const std::uint64_t key : keys) {
      buf[start[(key >> shift) & 0xffff]++] = key;
    }
    keys.swap(buf);
  }
}

/// Whether sorted, non-empty \p list holds \p v: a binary search whose
/// step is a conditional move, not a branch.
bool contains(std::span<const NodeId> list, NodeId v) {
  const NodeId* base = list.data();
  for (std::size_t len = list.size(); len > 1;) {
    const std::size_t half = len / 2;
    base += base[half] <= v ? half : 0;
    len -= half;
  }
  return *base == v;
}

}  // namespace

double Topology::range_for_density(std::size_t count, double side,
                                   double density) noexcept {
  return side * std::sqrt(density /
                          (std::numbers::pi * static_cast<double>(count)));
}

Topology Topology::random_uniform(std::size_t count, double side, double range,
                                  support::Xoshiro256& rng) {
  std::vector<Vec2> drawn;
  drawn.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    drawn.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  }
  // Ids follow the Hilbert curve over range-sized cells, so radio
  // neighbors get nearby ids.  Draw 0, the base station, keeps id 0; the
  // rest are numbered by (cell's curve index, draw index).  At most 2^16
  // cells per axis; a NaN or sub-cell side/range quotient means one.
  const double span = std::min(std::ceil(side / range), 65536.0);
  const std::uint32_t dim = span > 1.0 ? static_cast<std::uint32_t>(span) : 1;
  const int order = std::bit_width(dim - 1);
  const auto cell_of = [&](double v) {
    const double cell = std::min(v / range, static_cast<double>(dim - 1));
    return cell >= 1.0 ? static_cast<std::uint32_t>(cell) : 0u;
  };
  std::vector<std::uint64_t> keyed;  // curve index << 32 | draw index
  keyed.reserve(count);
  for (std::size_t i = 1; i < count; ++i) {
    const Vec2 p = drawn[i];
    keyed.push_back(
        std::uint64_t{hilbert_index(cell_of(p.x), cell_of(p.y), order)} << 32 |
        i);
  }
  radix_sort_by_high_word(keyed, 2 * order);

  Topology topo;
  topo.side_ = side;
  topo.range_ = range;
  topo.positions_.reserve(count);
  topo.order_.resize(count);  // draw 0 -> id 0
  if (count > 0) topo.positions_.push_back(drawn[0]);
  for (const std::uint64_t key : keyed) {
    const auto draw = static_cast<std::uint32_t>(key);
    topo.order_[draw] = static_cast<NodeId>(topo.positions_.size());
    topo.positions_.push_back(drawn[draw]);
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
  topo.order_.resize(topo.positions_.size());
  std::iota(topo.order_.begin(), topo.order_.end(), NodeId{0});
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
  // while the cell slots alone would dwarf the entries, so clamp the
  // cell count to O(N) (neighbor scans just cover more cells per query).
  const auto count_clamp =
      static_cast<std::size_t>(
          2.0 * std::sqrt(static_cast<double>(std::max<std::size_t>(n, 1)))) +
      1;
  grid_dim_ = std::min(grid_dim_, std::min<std::size_t>(count_clamp, 4096));
  // Counting sort into exact-fit slots: per-cell counts, prefix sums,
  // then a fill pass in id order.
  cells_.assign(grid_dim_ * grid_dim_, Slot{});
  for (const Vec2& pos : positions_) ++cells_[cell_index(pos)].cap;
  std::uint32_t begin = 0;
  for (Slot& cell : cells_) {
    cell.begin = begin;
    begin += cell.cap;
  }
  cell_pool_.resize(n);
  entry_of_.resize(n);
  for (NodeId id = 0; id < n; ++id) {
    Slot& cell = cells_[cell_index(positions_[id])];
    entry_of_[id] = cell.begin + cell.count++;
    cell_pool_[entry_of_[id]] = {positions_[id], id};
  }
}

void Topology::index_entries(const Slot& cell) {
  for (std::uint32_t at = cell.begin; at < cell.begin + cell.count; ++at) {
    entry_of_[cell_pool_[at].id] = at;
  }
}

void Topology::cell_append(std::size_t cell, CellEntry entry) {
  Slot& slot = cells_[cell];
  if (slot.count == slot.cap) {
    relocate(cell_pool_, slot, slot.count + 1);
    index_entries(slot);
    ++maint_.slot_relocations;
  }
  entry_of_[entry.id] = slot.begin + slot.count++;
  cell_pool_[entry_of_[entry.id]] = entry;
}

std::size_t Topology::scan_into(std::vector<NodeId>& out, Vec2 center,
                                double radius, NodeId exclude) const {
  const double cell = side_ / static_cast<double>(grid_dim_);
  const double r2 = radius * radius;
  const int reach = static_cast<int>(std::ceil(radius / cell));
  const int cx = static_cast<int>(center.x / cell);
  const int cy = static_cast<int>(center.y / cell);
  const int dim = static_cast<int>(grid_dim_);
  const int x0 = std::max(0, cx - reach);
  const int x1 = std::min(dim - 1, cx + reach);
  const int y0 = std::max(0, cy - reach);
  const int y1 = std::min(dim - 1, cy + reach);
  // One pass over the stencil, filtering branch-free: write each
  // candidate and advance past it only if it is in range and not
  // excluded.  out grows only when a cell could overflow it.
  std::size_t kept = 0;
  for (int gy = y0; gy <= y1; ++gy) {
    const Slot* row = cells_.data() + static_cast<std::size_t>(gy) * grid_dim_;
    for (int gx = x0; gx <= x1; ++gx) {
      const CellEntry* entry = cell_pool_.data() + row[gx].begin;
      const CellEntry* const end = entry + row[gx].count;
      if (kept + row[gx].count > out.size()) {
        out.resize(2 * (kept + row[gx].count));
      }
      NodeId* const dst = out.data();
      for (; entry != end; ++entry) {
        dst[kept] = entry->id;
        kept += static_cast<std::size_t>(
            (distance_squared(center, entry->pos) <= r2) &
            (entry->id != exclude));
      }
    }
  }
  return kept;
}

std::vector<NodeId> Topology::scan_neighbors(Vec2 center, double radius,
                                             NodeId exclude) const {
  std::vector<NodeId> out(static_cast<std::size_t>(expected_degree()) + 8);
  out.resize(scan_into(out, center, radius, exclude));
  std::sort(out.begin(), out.end());
  return out;
}

void Topology::rebuild_neighbor_lists() {
  const std::size_t n = positions_.size();
  const double degree = expected_degree();
  nbr_slots_.resize(n);
  nbr_pool_.clear();
  nbr_pool_.reserve(
      static_cast<std::size_t>(static_cast<double>(n) * (degree + 1.0)));
  // One scratch buffer for every scan instead of a fresh vector per node.
  std::vector<NodeId> scratch(static_cast<std::size_t>(degree * 2.0) + 8);
  total_degree_ = 0;
  for (NodeId id = 0; id < n; ++id) {
    const auto deg = static_cast<std::uint32_t>(
        scan_into(scratch, positions_[id], range_, id));
    std::sort(scratch.begin(), scratch.begin() + deg);
    // Exact fit: the bulk layout carries zero slack.
    nbr_slots_[id] = {static_cast<std::uint32_t>(nbr_pool_.size()), deg, deg};
    nbr_pool_.insert(nbr_pool_.end(), scratch.begin(), scratch.begin() + deg);
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
  Slot& slot = nbr_slots_[id];
  if (ids.size() > slot.cap) {
    relocate(nbr_pool_, slot, ids.size());
    ++maint_.slot_relocations;
  }
  std::copy(ids.begin(), ids.end(), nbr_pool_.begin() + slot.begin);
  total_degree_ += ids.size();
  total_degree_ -= slot.count;
  slot.count = static_cast<std::uint32_t>(ids.size());
}

void Topology::patch_insert(NodeId id, NodeId other) {
  Slot& slot = nbr_slots_[id];
  if (slot.count == slot.cap) {
    relocate(nbr_pool_, slot, slot.count + 1);
    ++maint_.slot_relocations;
  }
  const auto begin = nbr_pool_.begin() + slot.begin;
  const auto end = begin + slot.count;
  const auto pos = std::upper_bound(begin, end, other);
  std::copy_backward(pos, end, end + 1);
  *pos = other;
  ++slot.count;
  ++total_degree_;
}

void Topology::patch_erase(NodeId id, NodeId other) {
  Slot& slot = nbr_slots_[id];
  const auto begin = nbr_pool_.begin() + slot.begin;
  const auto end = begin + slot.count;
  const auto pos = std::lower_bound(begin, end, other);
  assert(pos != end && *pos == other);
  std::copy(pos + 1, end, pos);
  --slot.count;
  --total_degree_;
}

void Topology::apply_displacements(std::span<const NodeId> moved,
                                   std::span<const Vec2> new_positions) {
  assert(moved.size() == new_positions.size());
  ++maint_.incremental_epochs;
  if (moved.empty()) return;
  if (mover_stamp_.size() < positions_.size()) {
    mover_stamp_.resize(positions_.size(), 0);
  }
  ++stamp_epoch_;
  if (stamp_epoch_ == 0) {  // wrapped: stamps are ambiguous, reset them
    std::fill(mover_stamp_.begin(), mover_stamp_.end(), 0);
    stamp_epoch_ = 1;
  }
  // Phase 1: commit every mover's position to positions_ and the index,
  // so phase 2's scans all see the epoch's final geometry.
  for (std::size_t i = 0; i < moved.size(); ++i) {
    const NodeId id = moved[i];
    Vec2 p = new_positions[i];
    p.x = std::clamp(p.x, 0.0, side_);
    p.y = std::clamp(p.y, 0.0, side_);
    const std::size_t from = cell_index(positions_[id]);
    const std::size_t to = cell_index(p);
    positions_[id] = p;
    mover_stamp_[id] = stamp_epoch_;
    CellEntry& entry = cell_pool_[entry_of_[id]];
    if (from == to) {
      entry.pos = p;
    } else {  // swap-erase from the old cell, append to the new one
      Slot& cell = cells_[from];
      entry = cell_pool_[cell.begin + --cell.count];
      entry_of_[entry.id] = entry_of_[id];
      cell_append(to, {p, id});
      ++maint_.cell_rebuckets;
    }
  }
  // Phase 2: a unit-disk edge flips only if an endpoint moved, so
  // rescanning the movers covers every change.  A mover whose scan holds
  // exactly its old neighbors (equal size, every scanned id a member of
  // the old list; scans never repeat an id) flipped no edge and keeps
  // its list as it is.  Otherwise diffing its sorted new list against
  // the old one yields the flipped edges; non-mover endpoints get a
  // sorted one-element patch, mover endpoints rebuild their own lists
  // anyway.  Mover-mover flips surface in both scans and are counted
  // once (from the lower id).
  for (const NodeId m : moved) {
    ++maint_.movers_rescanned;
    const auto old_list = neighbors(m);
    const std::size_t found = scan_into(scratch_new_, positions_[m], range_, m);
    const std::span<NodeId> fresh{scratch_new_.data(), found};
    if (fresh.size() == old_list.size() &&
        std::all_of(fresh.begin(), fresh.end(),
                    [&](NodeId v) { return contains(old_list, v); })) {
      continue;
    }
    std::sort(fresh.begin(), fresh.end());
    scratch_old_.assign(old_list.begin(), old_list.end());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < scratch_old_.size() || j < fresh.size()) {
      if (j == fresh.size() ||
          (i < scratch_old_.size() && scratch_old_[i] < fresh[j])) {
        const NodeId v = scratch_old_[i++];
        const bool v_moved = mover_stamp_[v] == stamp_epoch_;
        if (!v_moved) patch_erase(v, m);
        if (!v_moved || v > m) ++maint_.edges_removed;
      } else if (i == scratch_old_.size() || fresh[j] < scratch_old_[i]) {
        const NodeId v = fresh[j++];
        const bool v_moved = mover_stamp_[v] == stamp_epoch_;
        if (!v_moved) patch_insert(v, m);
        if (!v_moved || v > m) ++maint_.edges_added;
      } else {
        ++i;
        ++j;
      }
    }
    store_list(m, fresh);
  }
  // Compact either pool once dead slots and slack outweigh live data.
  if (nbr_pool_.size() > 1024 && nbr_pool_.size() > 2 * total_degree_) {
    compact(nbr_pool_, compact_buf_, nbr_slots_);
    ++maint_.pool_compactions;
  }
  if (cell_pool_.size() > 2 * (positions_.size() + 2 * cells_.size())) {
    compact(cell_pool_, cell_buf_, cells_);
    for (const Slot& cell : cells_) index_entries(cell);
    ++maint_.pool_compactions;
  }
}

NodeId Topology::add_node(Vec2 pos) {
  const auto id = static_cast<NodeId>(positions_.size());
  positions_.push_back(pos);
  entry_of_.push_back(0);
  cell_append(cell_index(pos), {pos, id});
  if (!mover_stamp_.empty()) mover_stamp_.push_back(0);
  const std::vector<NodeId> nbrs = scan_neighbors(pos, range_, id);
  for (const NodeId neighbor : nbrs) patch_insert(neighbor, id);
  nbr_slots_.push_back({static_cast<std::uint32_t>(nbr_pool_.size()), 0, 0});
  store_list(id, nbrs);
  return id;
}

}  // namespace ldke::net
