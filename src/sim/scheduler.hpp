#pragma once
/// \file scheduler.hpp
/// Pending-event set: a binary heap of (time, sequence) ordered events.
/// Equal-time events run in sequence-number order, which keeps trials
/// bit-reproducible.  schedule() numbers events in call order; a caller
/// that streams a precomputed event list can reserve a block of numbers
/// up front and push each event later under its own number, so the list
/// ties with other events as if it had been scheduled all at once.
///
/// Layout: the heap holds 24-byte POD entries; the callables live in a
/// slot slab indexed by the low half of the EventId.  The high half is a
/// per-slot generation counter, so a stale id (already run or cancelled,
/// slot since reused) is recognised without any auxiliary set.  Cancel is
/// O(1): the slot is retired and the heap entry becomes a tombstone that
/// `skip_dead` pops when it reaches the top.

#include <cstdint>
#include <queue>
#include <vector>

#include "sim/event_fn.hpp"
#include "sim/time.hpp"

namespace ldke::sim {

/// Handle that allows cancelling a scheduled event (e.g. a node cancels
/// its cluster-head timer when it joins another cluster).
/// Encoded as (generation << 32) | (slot + 1), so 0 is never issued.
using EventId = std::uint64_t;

inline constexpr EventId kInvalidEventId = 0;

class Scheduler {
 public:
  /// Schedules \p action at absolute time \p when; returns a cancellable id.
  /// EventFn keeps typical captures inline (no allocation per event).
  EventId schedule(SimTime when, EventFn action);

  /// Reserves \p n consecutive sequence numbers and returns the first;
  /// schedule() numbering continues after the block.  An event pushed
  /// later with schedule_reserved() under one of them ties at equal
  /// times exactly as if it had been scheduled at reservation time.
  std::uint64_t reserve_sequence(std::uint64_t n) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// Schedules \p action at \p when under \p seq, a number from an
  /// earlier reserve_sequence() block.  Each reserved number is used at
  /// most once.
  EventId schedule_reserved(SimTime when, std::uint64_t seq, EventFn action);

  /// Cancels a pending event; returns false if already run/cancelled.
  bool cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }

  /// Deepest the pending set has ever been.  Tracked at schedule() time
  /// (the set is deepest right after a push), which keeps the run loop
  /// free of bookkeeping.
  [[nodiscard]] std::size_t high_water() const noexcept {
    return high_water_;
  }

  /// Time of the earliest live event. Precondition: !empty().
  [[nodiscard]] SimTime next_time();

  /// Pops and runs the earliest event; returns its time.
  /// Precondition: !empty().
  SimTime run_next();

 private:
  struct Entry {
    SimTime when;
    std::uint64_t seq;  ///< scheduling or reserved order: stable tie-break
    EventId id;

    // Min-heap on (when, seq): std::priority_queue is a max-heap, so the
    // comparison is inverted.
    friend bool operator<(const Entry& a, const Entry& b) noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  struct Slot {
    EventFn action;
    std::uint32_t generation = 0;
    bool live = false;
  };

  static constexpr std::uint32_t slot_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id & 0xffff'ffffU) - 1;
  }
  static constexpr std::uint32_t generation_of(EventId id) noexcept {
    return static_cast<std::uint32_t>(id >> 32);
  }

  /// Stores \p action in a slot and pushes its heap entry under \p seq.
  EventId push(SimTime when, std::uint64_t seq, EventFn&& action);
  [[nodiscard]] bool is_live(EventId id) const noexcept;
  /// Retires a slot after run/cancel; the next schedule() may reuse it
  /// under a bumped generation.
  void retire(std::uint32_t slot) noexcept;
  void skip_dead();

  std::priority_queue<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace ldke::sim
