#pragma once
/// \file timeline_oracle.hpp
/// Reference expansion of a scenario timeline, kept as a test oracle for
/// the lazy Timeline::Cursor.  It is the straightforward construction:
/// generate every event of every phase — scripted, churn, then each
/// sensor's duty flips node by node — into one vector, then stable-sort
/// it on (t_ns, kind, node) so generation order breaks the remaining
/// ties.  It shares no generator code with src/scenario/timeline.cpp.

#include <cstdint>
#include <vector>

#include "scenario/spec.hpp"
#include "scenario/timeline.hpp"

namespace ldke::scenario::oracle {

struct PhasedEvent {
  Event event;
  std::uint32_t phase = 0;
};

struct ExpandedTimeline {
  std::vector<PhasedEvent> events;  ///< canonical order, all phases
  std::vector<std::size_t> phase_counts;
  std::uint64_t digest = 0;
  std::size_t joins = 0;
  std::size_t leaves = 0;
  std::size_t fails = 0;
  /// Departures drawn after the alive set ran dry; dropped, not emitted.
  std::size_t dropped_departures = 0;
  net::NodeId first_join_id = 0;
};

/// Expands \p spec under \p seed.  Throws std::invalid_argument unless
/// the spec validates clean.
[[nodiscard]] ExpandedTimeline expand(const ScenarioSpec& spec,
                                      std::uint64_t seed);

/// The duty offset of sensor \p id, in [0, period_ns).
[[nodiscard]] std::int64_t duty_offset_ns(std::uint64_t seed, net::NodeId id,
                                          std::int64_t period_ns);

}  // namespace ldke::scenario::oracle
