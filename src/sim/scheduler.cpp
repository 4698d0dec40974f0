#include "sim/scheduler.hpp"

#include <cassert>
#include <utility>

namespace ldke::sim {

// Forced inline into both callers: schedule() is on every event's path,
// and an out-of-line push would add a call and an EventFn move to it.
[[gnu::always_inline]] inline EventId Scheduler::push(SimTime when,
                                                      std::uint64_t seq,
                                                      EventFn&& action) {
  std::uint32_t slot;
  if (free_slots_.empty()) {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& s = slots_[slot];
  s.action = std::move(action);
  s.live = true;
  const EventId id =
      (static_cast<EventId>(s.generation) << 32) | (slot + 1ULL);
  heap_.push(Entry{when, seq, id});
  ++live_;
  if (live_ > high_water_) high_water_ = live_;
  return id;
}

EventId Scheduler::schedule(SimTime when, EventFn action) {
  return push(when, next_seq_++, std::move(action));
}

EventId Scheduler::schedule_reserved(SimTime when, std::uint64_t seq,
                                     EventFn action) {
  assert(seq < next_seq_ && "sequence number was never reserved");
  return push(when, seq, std::move(action));
}

bool Scheduler::is_live(EventId id) const noexcept {
  if (id == kInvalidEventId) return false;
  const std::uint32_t slot = slot_of(id);
  if (slot >= slots_.size()) return false;
  const Slot& s = slots_[slot];
  return s.live && s.generation == generation_of(id);
}

void Scheduler::retire(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.action = nullptr;
  s.live = false;
  ++s.generation;  // invalidates every outstanding id for this slot
  free_slots_.push_back(slot);
  --live_;
}

bool Scheduler::cancel(EventId id) {
  if (!is_live(id)) return false;  // already run or cancelled
  retire(slot_of(id));
  // The heap entry stays behind as a tombstone; skip_dead pops it once
  // it surfaces.
  return true;
}

void Scheduler::skip_dead() {
  while (!heap_.empty() && !is_live(heap_.top().id)) heap_.pop();
}

SimTime Scheduler::next_time() {
  skip_dead();
  assert(!heap_.empty());
  return heap_.top().when;
}

SimTime Scheduler::run_next() {
  skip_dead();
  assert(!heap_.empty());
  const Entry entry = heap_.top();
  heap_.pop();
  const std::uint32_t slot = slot_of(entry.id);
  // Move the callable out and finish slab bookkeeping BEFORE invoking:
  // the action may schedule new events (possibly reusing this slot) or
  // cancel others.
  EventFn action = std::move(slots_[slot].action);
  retire(slot);
  action();
  return entry.when;
}

}  // namespace ldke::sim
