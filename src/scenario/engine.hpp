#pragma once
/// \file engine.hpp
/// Packet-level scenario execution: drives a ProtocolRunner deployment
/// through the phases of a ScenarioSpec — mobility epochs rebuilding
/// the CSR neighbor lists, Poisson churn (mark-gone departures and
/// §IV-E joins), sleep/wake duty cycling behind the radio gates, and
/// scripted partition walls — while a DataPlaneEngine generates DATA
/// traffic in every phase.  All scenario randomness comes from the
/// Timeline and a dedicated MobilityField stream, so two runs of the
/// same (spec, seed) produce bit-identical ScenarioStats, and the
/// graph-level baseline replay reproduces the same trace digest.

#include <cstdint>
#include <string>
#include <vector>

#include "core/dataplane.hpp"
#include "core/health_probe.hpp"
#include "core/runner.hpp"
#include "obs/audit.hpp"
#include "obs/json.hpp"
#include "scenario/mobility.hpp"
#include "scenario/spec.hpp"
#include "scenario/timeline.hpp"

namespace ldke::scenario {

struct PhaseStats {
  std::string name;
  double start_s = 0.0;  ///< scenario-relative phase window
  double end_s = 0.0;

  // Data plane over the phase window.
  std::uint64_t attempts = 0;    ///< origination slots visited
  std::uint64_t originated = 0;  ///< readings actually sent
  std::uint64_t delivered = 0;   ///< accepted at the base station
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  std::uint64_t dropped_gone = 0;       ///< receiver asleep/departed
  std::uint64_t dropped_partition = 0;  ///< blocked by the scripted wall
  std::uint64_t tx_gated = 0;           ///< sender radio off at transmit

  // Dynamics executed in the phase.
  std::uint64_t motion_epochs = 0;
  std::uint64_t joins = 0;
  std::uint64_t join_successes = 0;  ///< joiners that reached kMember
  std::uint64_t leaves = 0;
  std::uint64_t fails = 0;
  std::uint64_t sleeps = 0;
  std::uint64_t wakes = 0;
  std::uint64_t forced_wakes = 0;  ///< woken by the phase boundary
  std::uint64_t partitions = 0;
  std::uint64_t heals = 0;
  std::uint64_t reclustered = 0;  ///< 1 if recluster_after ran

  // Key freshness / cluster health at phase end.
  std::uint64_t refresh_rounds = 0;    ///< §IV-C hash refreshes in phase
  std::uint64_t catch_up_epochs = 0;   ///< refreshes replayed by wakers
  double hash_epoch_lag_end = 0.0;     ///< mean missed refreshes, active nodes
  std::uint64_t orphans_end = 0;       ///< active nodes without a cluster key
  double orphan_node_s = 0.0;          ///< orphan-seconds (epoch-sampled)
  std::uint64_t heads_end = 0;         ///< active cluster heads
  double mean_degree_end = 0.0;        ///< topology mean degree

  [[nodiscard]] double delivery_ratio() const noexcept {
    return originated == 0
               ? 0.0
               : static_cast<double>(delivered) /
                     static_cast<double>(originated);
  }
};

struct ScenarioStats {
  std::string name;
  std::uint64_t seed = 0;
  std::uint64_t trace_digest = 0;  ///< timeline + per-epoch positions
  double duration_s = 0.0;
  std::vector<PhaseStats> phases;

  std::uint64_t originated = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_gone = 0;
  std::uint64_t dropped_partition = 0;
  std::uint64_t tx_gated = 0;
  std::uint64_t joins = 0;
  std::uint64_t leaves = 0;
  std::uint64_t fails = 0;
  std::uint64_t reclusters = 0;

  [[nodiscard]] obs::JsonValue to_json() const;
};

class ScenarioEngine {
 public:
  /// \p runner must be freshly constructed from make_runner_config():
  /// the engine owns the full lifecycle (key setup, routing, phases).
  /// Throws if the runner config diverges from the spec or the simulator
  /// has more than one lane (scenario events mutate cross-lane node
  /// state).
  ScenarioEngine(core::ProtocolRunner& runner, ScenarioSpec spec);
  ScenarioEngine(const ScenarioEngine&) = delete;
  ScenarioEngine& operator=(const ScenarioEngine&) = delete;

  /// Deployment config matching \p spec, so the graph-level replay can
  /// reproduce the node placement from the same seed.
  [[nodiscard]] static core::RunnerConfig make_runner_config(
      const ScenarioSpec& spec, std::uint64_t seed);

  ScenarioStats run();

  [[nodiscard]] const ScenarioStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const Timeline& timeline() const noexcept { return timeline_; }
  /// One HealthSample per phase, taken at the phase boundary (after the
  /// forced wake-up and heal, before any recluster round) by one full
  /// core::probe_health walk: O(N+E), paid only where the gauges are
  /// read, so key events and edge flips between samples cost nothing
  /// extra.  The delivery window covers envelopes originated inside the
  /// phase.
  [[nodiscard]] const std::vector<obs::HealthSample>& health() const noexcept {
    return health_;
  }

 private:
  void apply_event(const Event& ev, PhaseStats& ps);
  /// Schedules the running phase's next timeline event under its
  /// reserved sequence number; when it runs it schedules the one after.
  void schedule_timeline_event();
  void schedule_motion_epochs(sim::SimTime phase_end, double epoch_s,
                              PhaseStats& ps);
  void finish_phase(std::uint32_t pi, PhaseStats& ps,
                    const core::DataPlaneStats& dp_stats,
                    std::int64_t phase_start_sim_ns);
  [[nodiscard]] std::uint32_t global_hash_epoch() const noexcept;

  core::ProtocolRunner& runner_;
  ScenarioSpec spec_;
  Timeline timeline_;
  MobilityField mobility_;
  ScenarioStats stats_;
  std::vector<obs::HealthSample> health_;
  std::uint64_t digest_ = 0;
  std::uint32_t hash_epochs_done_ = 0;  ///< refresh rounds before this phase
  const core::DataPlaneEngine* current_dp_ = nullptr;
  /// The running phase's timeline cursor and where it lands in the
  /// scheduler: sim time = offset_ns + t_ns, the cursor's event under
  /// sequence number next_seq.
  struct TimelineStream {
    Timeline::Cursor cursor;
    std::int64_t offset_ns = 0;
    std::uint64_t next_seq = 0;
    PhaseStats* stats = nullptr;
  } stream_;
  std::vector<net::NodeId> phase_join_ids_;
};

}  // namespace ldke::scenario
