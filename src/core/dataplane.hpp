#pragma once
/// \file dataplane.hpp
/// Steady-state data-plane workload engine.
///
/// After setup and routing converge, a deployment's life is DATA
/// traffic: readings originate all over the network, hop toward the base
/// station under cluster-key envelopes, and keys refresh / clusters get
/// evicted while packets are in flight.  ProtocolRunner drives the
/// phases; this engine drives that steady state at a configurable
/// origination rate.  Each origination is one SensorNode::send_reading,
/// the paper's per-hop §IV-C Step 2: the node seals one envelope under
/// its cluster key and broadcasts it once.
///
/// Each frame's payload block is freed at its last release (see
/// payload.hpp), so payload memory tracks the frames in flight, not the
/// window's length.  Optionally the engine applies hash refresh rounds
/// and cluster evictions to exercise the control plane concurrently
/// with traffic.

#include <cstdint>
#include <vector>

#include "core/runner.hpp"
#include "crypto/obs.hpp"

namespace ldke::core {

struct DataPlaneConfig {
  double duration_s = 5.0;         ///< steady-state window length
  /// The default load is perfbench steady_2k's, 80 readings/s: below the
  /// radio's capacity, so no backlog grows with the window.
  double tick_interval_s = 0.05;   ///< origination cadence
  std::size_t readings_per_tick = 4;  ///< origination attempts per tick
  std::size_t reading_bytes = 24;  ///< sensor payload size

  /// Hash-refresh every this many seconds (0 = off).  All nodes advance
  /// their epoch in one event, like the runner's refresh driver.
  double refresh_interval_s = 0.0;
  /// Cluster eviction every this many seconds (0 = off, or no base
  /// station).  Cycles deterministically through the non-base clusters,
  /// in their heads' deployment order.
  double evict_interval_s = 0.0;
  std::size_t evict_batch = 1;  ///< clusters revoked per eviction event

  /// Not a setting: perfbench still divides by it.  The benchmark PR
  /// that stops reading it deletes it (ROADMAP item 4).
  static constexpr std::uint32_t arena_generation_ticks = 16;
};

struct DataPlaneStats {
  std::uint64_t ticks = 0;
  std::uint64_t attempts = 0;    ///< origination attempts (incl. ineligible)
  std::uint64_t originated = 0;  ///< readings actually sent
  std::uint64_t refresh_rounds = 0;
  std::uint64_t clusters_evicted = 0;
  double sim_elapsed_s = 0.0;
  /// Always 0: perfbench still reads it.  The benchmark PR that stops
  /// reading it deletes it (ROADMAP item 4).
  static constexpr std::uint64_t arena_generations = 0;
};

class DataPlaneEngine {
 public:
  DataPlaneEngine(ProtocolRunner& runner, DataPlaneConfig config);

  /// Drives the steady-state window to completion (blocking) and returns
  /// the workload stats.  Records a "steady_state" span on the runner's
  /// timeline.  Requires the serial event loop: node state is mutated
  /// from engine events, which the sharded kernel cannot lane-bind.
  DataPlaneStats run();

  [[nodiscard]] const DataPlaneStats& stats() const noexcept {
    return stats_;
  }
  /// All zeros: every seal, open and F of the window is charged to the
  /// node that does it — DATA seals to the sender, refresh rounds to each
  /// refreshing node, revocations to the base station — so
  /// ProtocolRunner::crypto_totals() holds all of them.  Kept only for
  /// perfbench's worker, which still reads it.
  [[nodiscard]] const crypto::CryptoCounters& crypto_stats() const noexcept {
    static constexpr crypto::CryptoCounters kNone{};
    return kNone;
  }

 private:
  void schedule_tick(net::Network& net);
  void schedule_refresh(net::Network& net);
  void schedule_evict(net::Network& net);

  void originate(net::Network& net);
  void refresh_all();
  void evict_some(net::Network& net);

  /// Deterministic per-attempt payload fill.
  void fill_payload(net::NodeId source);

  ProtocolRunner& runner_;
  DataPlaneConfig config_;
  DataPlaneStats stats_;

  sim::SimTime end_{};
  std::size_t next_source_ = 0;  ///< round-robin cursor, deployment order

  // Eviction rotation, built lazily on the first eviction event.
  std::vector<ClusterId> evict_cycle_;
  bool evict_cycle_built_ = false;
  std::size_t next_evict_ = 0;

  support::Bytes payload_;  ///< reused reading buffer
};

}  // namespace ldke::core
