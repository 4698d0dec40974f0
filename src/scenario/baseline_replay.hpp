#pragma once
/// \file baseline_replay.hpp
/// Graph-level scenario replay for the §III baseline key schemes.  The
/// packet-level ScenarioEngine exercises LDKE's actual protocol; the
/// baselines are evaluated the way the paper compares them — over the
/// communication graph — but under the *same* trace: the replay walks
/// the identical Timeline, advances an identical MobilityField, and
/// folds the identical digest, so a digest match proves both replayers
/// walked the same deployment history.  Per phase it reports how much
/// of the in-range graph each scheme still secures once nodes move,
/// sleep, leave and join.

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/scheme.hpp"
#include "net/topology.hpp"
#include "obs/json.hpp"
#include "scenario/spec.hpp"

namespace ldke::scenario {

struct GraphPhaseStats {
  std::string name;
  double alive_fraction = 0.0;   ///< alive / (original + joined so far)
  double awake_fraction = 0.0;   ///< awake alive / alive, at phase end
  std::uint64_t in_range_pairs = 0;   ///< both endpoints alive and awake
  std::uint64_t secured_pairs = 0;    ///< ... and the scheme keys them
  double secured_link_fraction = 0.0;
  double mean_secured_degree = 0.0;
  std::uint64_t unkeyed_nodes = 0;  ///< joiners the scheme has no material for
};

struct GraphReplayResult {
  std::string scheme;
  std::uint64_t trace_digest = 0;  ///< must equal the engine's digest
  std::vector<GraphPhaseStats> phases;

  [[nodiscard]] obs::JsonValue to_json() const;
};

/// The deployment the packet engine's runner realizes for (spec, seed):
/// node placement is the first draw from the trial RNG, so the graph
/// replay reproduces it without constructing a runner.
[[nodiscard]] net::Topology initial_topology(const ScenarioSpec& spec,
                                             std::uint64_t seed);

/// Replays (spec, seed) against \p scheme.  setup() runs once over the
/// initial topology (predistribution happens before deployment); the
/// scheme is *not* re-keyed as the scenario unfolds — that gap is
/// exactly what the per-phase metrics measure.
[[nodiscard]] GraphReplayResult replay_scheme(const ScenarioSpec& spec,
                                              std::uint64_t seed,
                                              baselines::KeyScheme& scheme);

}  // namespace ldke::scenario
