#pragma once
/// \file record_log.hpp
/// Bounded, lane-sharded record log: the one in-memory store behind
/// every trace family (packet records, audit events).
///
/// Under a sharded kernel every lane thread appends to its own shard (no
/// locks, no false sharing).  A full shard evicts its oldest quarter.
/// merged() restores one canonical stream: the shards concatenated in
/// lane order, then stably sorted by (time, actor).  That order is
/// invariant under the lane count — every actor lives in exactly one
/// lane and its records arrive in deterministic order — so a merged
/// trace is byte-identical whether the run used 1, 2 or 8 lanes, as long
/// as no shard evicted.
///
/// Every record offered is counted: total_seen() == total_recorded() +
/// total_dropped() always holds, so a trace writer can say exactly how
/// much of a family it lost.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ldke::obs {

/// \p Time and \p Actor are pointers to the Record members that form the
/// merge key, e.g. `&AuditEvent::t_ns` and `&AuditEvent::actor`.
template <class Record, auto Time, auto Actor>
class RecordLog {
 public:
  /// Keeps at most \p capacity_per_lane records per lane shard.
  explicit RecordLog(std::size_t capacity_per_lane = 1 << 18)
      : capacity_per_lane_(capacity_per_lane == 0 ? 1 : capacity_per_lane),
        shards_(1) {}

  /// Resizes to \p lanes shards, keeping shard 0's content when growing
  /// from the serial default.  Call before any concurrent record().
  void enable_lanes(std::size_t lanes) {
    shards_.resize(lanes == 0 ? 1 : lanes);
  }

  /// Kept out of line: inlined, the eviction path would be copied into
  /// every protocol handler that emits a record.
  [[gnu::noinline]] void record(std::size_t lane, const Record& record) {
    Shard& shard = shards_[lane < shards_.size() ? lane : 0];
    ++shard.seen;
    if (shard.records.size() >= capacity_per_lane_) {
      const std::size_t evicted = capacity_per_lane_ / 4 + 1;
      shard.records.erase(
          shard.records.begin(),
          shard.records.begin() + static_cast<std::ptrdiff_t>(evicted));
      shard.dropped += evicted;
    }
    shard.records.push_back(record);
  }

  /// The canonical merged stream (lane-count invariant).
  [[nodiscard]] std::vector<Record> merged() const {
    std::vector<Record> out;
    out.reserve(total_recorded());
    for (const Shard& shard : shards_) {
      out.insert(out.end(), shard.records.begin(), shard.records.end());
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const Record& a, const Record& b) {
                       if (a.*Time != b.*Time) return a.*Time < b.*Time;
                       return a.*Actor < b.*Actor;
                     });
    return out;
  }

  [[nodiscard]] std::size_t lanes() const noexcept { return shards_.size(); }
  [[nodiscard]] std::uint64_t total_seen() const noexcept {
    std::uint64_t n = 0;
    for (const Shard& shard : shards_) n += shard.seen;
    return n;
  }
  [[nodiscard]] std::uint64_t total_recorded() const noexcept {
    std::uint64_t n = 0;
    for (const Shard& shard : shards_) n += shard.records.size();
    return n;
  }
  /// Records evicted because a shard overflowed.
  [[nodiscard]] std::uint64_t total_dropped() const noexcept {
    std::uint64_t n = 0;
    for (const Shard& shard : shards_) n += shard.dropped;
    return n;
  }

  /// Empties every shard and zeroes the tallies; the lane layout stays.
  void clear() noexcept {
    for (Shard& shard : shards_) {
      shard.records.clear();
      shard.seen = 0;
      shard.dropped = 0;
    }
  }

 private:
  struct alignas(64) Shard {
    std::vector<Record> records;
    std::uint64_t seen = 0;
    std::uint64_t dropped = 0;
  };

  std::size_t capacity_per_lane_;
  std::vector<Shard> shards_;
};

}  // namespace ldke::obs
