#pragma once
/// \file timeline.hpp
/// Fully deterministic event timeline for a scenario, generated on
/// demand.  All randomness (Poisson churn arrivals, victim selection,
/// join positions, duty offsets) comes from RNG streams derived from
/// (seed, tag), never from the protocol RNG — so the packet-level engine
/// and the graph-level baseline replay can each build the same (spec,
/// seed) and walk byte-identical traces.
///
/// Construction keeps only what cannot be recomputed cheaply: the phase
/// starts, each phase's scripted and churn events (a few hundred, in
/// canonical order) and the sensors sorted once by (duty offset, id).
/// Duty flips — the bulk of a duty-cycled phase — are never stored:
/// every sensor shares one period and one on-time, and every offset lies
/// in [0, period), so one walk over the sorted sensors per period yields
/// a phase's sleeps in time order and a second walk its wakes.  A
/// Cursor merges those two walks with the scripted+churn list on
/// (t_ns, kind, node), scripted+churn first on a full tie, which is the
/// canonical order: O(1) work per event and O(nodes) memory whatever
/// the phase length.
///
/// Times are integral nanoseconds (the SimTime domain).  Phase starts
/// accumulate as exact integer sums of per-phase durations, so an event
/// ordered against a motion epoch in one replayer orders identically in
/// the other.

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "net/node.hpp"
#include "net/vec2.hpp"
#include "scenario/spec.hpp"

namespace ldke::scenario {

enum class EventKind : std::uint8_t {
  kLeave,      ///< graceful departure (radio off, slot retired)
  kFail,       ///< crash failure (identical mechanics, separate count)
  kJoin,       ///< §IV-E new-identity deployment at a drawn position
  kSleep,      ///< duty cycle: radio off
  kWake,       ///< duty cycle: radio on + hash-epoch catch-up
  kPartition,  ///< scripted wall at x = pos.x
  kHeal,       ///< scripted partition removal
};

struct Event {
  std::int64_t t_ns = 0;   ///< scenario-absolute time
  EventKind kind = EventKind::kLeave;
  net::NodeId node = net::kNoNode;  ///< leave/fail/sleep/wake target, join id
  net::Vec2 pos{};         ///< join position; partition wall in pos.x
};

class Timeline {
 public:
  /// Builds the timeline of \p spec under \p seed.  Throws
  /// std::invalid_argument unless the spec validates clean.
  Timeline(const ScenarioSpec& spec, std::uint64_t seed);

  /// Walks one phase's events in canonical order.  Reads the Timeline
  /// it came from, which must outlive it.
  class Cursor {
   public:
    Cursor() = default;  ///< an exhausted cursor

    [[nodiscard]] bool done() const noexcept { return done_; }
    /// The current event; valid until the next advance().
    [[nodiscard]] const Event& operator*() const noexcept { return current_; }
    [[nodiscard]] const Event* operator->() const noexcept {
      return &current_;
    }
    void advance() noexcept;

   private:
    friend class Timeline;
    static constexpr std::int64_t kDone =
        std::numeric_limits<std::int64_t>::max();
    /// One duty-flip kind: slot i of round r falls at
    /// base_ns + r * period + offset of the i-th sorted sensor.
    struct DutyWalk {
      std::int64_t base_ns = 0;
      std::size_t slot = 0;
      Event head{kDone};  ///< t_ns == kDone once the walk leaves the phase
    };

    Cursor(const Timeline& timeline, std::uint32_t phase);
    void load(DutyWalk& walk) const noexcept;
    void step(DutyWalk& walk) const noexcept;

    const Timeline* timeline_ = nullptr;
    std::int64_t end_ns_ = 0;
    std::span<const Event> script_;  ///< scripted + churn, canonical order
    std::size_t next_script_ = 0;
    DutyWalk sleeps_;
    DutyWalk wakes_;
    Event current_;
    bool done_ = true;
  };

  /// A cursor at the first event of phase \p phase.
  [[nodiscard]] Cursor phase_cursor(std::uint32_t phase) const;
  /// Number of events phase_cursor(\p phase) yields.
  [[nodiscard]] std::size_t phase_event_count(std::uint32_t phase) const {
    return phase_counts_[phase];
  }
  [[nodiscard]] std::size_t phase_count() const noexcept {
    return phase_counts_.size();
  }

  /// Scenario-absolute start of phase \p phase, exact integer ns.
  [[nodiscard]] std::int64_t phase_start_ns(std::uint32_t phase) const {
    return phase_starts_ns_[phase];
  }
  [[nodiscard]] std::int64_t phase_end_ns(std::uint32_t phase) const {
    return phase_starts_ns_[phase + 1];
  }

  /// FNV-1a digest over the canonical event encoding.  Seeds the trace
  /// digest both replayers then fold position epochs into.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }

  [[nodiscard]] std::size_t joins() const noexcept { return joins_; }
  [[nodiscard]] std::size_t leaves() const noexcept { return leaves_; }
  [[nodiscard]] std::size_t fails() const noexcept { return fails_; }
  /// Joined nodes get ids first_join_id(), first_join_id()+1, ... in
  /// event order (matching ProtocolRunner::deploy_new_node assignment).
  [[nodiscard]] net::NodeId first_join_id() const noexcept {
    return first_join_id_;
  }

 private:
  struct DutySlot {
    std::int64_t offset_ns = 0;
    net::NodeId id = net::kNoNode;
  };

  void build_script(const ScenarioSpec& spec, std::uint64_t seed);
  void build_duty(const ScenarioSpec& spec, std::uint64_t seed);

  std::vector<std::int64_t> phase_starts_ns_;  // phases + 1 entries
  std::vector<Event> script_;                  // all phases, phase by phase
  std::vector<std::size_t> script_begin_;      // phases + 1 entries
  std::vector<bool> duty_phase_;               // phase duty-cycles
  std::vector<DutySlot> duty_order_;  // sensors by (offset_ns, id)
  std::int64_t period_ns_ = 0;
  std::int64_t on_ns_ = 0;
  std::vector<std::size_t> phase_counts_;
  std::uint64_t digest_ = 0;
  std::size_t joins_ = 0;
  std::size_t leaves_ = 0;
  std::size_t fails_ = 0;
  net::NodeId first_join_id_ = 0;
};

}  // namespace ldke::scenario
