#pragma once
/// \file dataplane.hpp
/// Steady-state data-plane workload engine.
///
/// After setup and routing converge, a deployment's life is DATA
/// traffic: readings originate all over the network, hop toward the
/// base station under cluster-key envelopes, and keys refresh / clusters
/// get evicted while packets are in flight.  ProtocolRunner drives the
/// phases; this engine drives that steady state, at a configurable
/// origination rate, in one of two pipelines:
///
///  * scalar  — each origination runs SensorNode::send_reading, sealing
///    and broadcasting one packet at a time (the historical path);
///  * batched — originations are planned via prepare_reading, grouped by
///    wrap key, sealed 4–8 at a time through the multi-buffer
///    SealContext::seal_batch, and broadcast in plan order through
///    SensorNode::push_sealed.
///
/// The two pipelines are bit-identical per seed: same ciphertexts and
/// tags on the air, same RNG draw order in the channel, same delivery
/// metrics.  Only the wall-clock cost differs (that difference is what
/// bench_dataplane measures).
///
/// Mid-run the engine periodically advances the payload arena's
/// generation so steady-state memory stays bounded by the in-flight
/// working set (see PayloadArena::advance_generation), and optionally
/// applies hash refresh rounds and cluster evictions to exercise the
/// control plane concurrently with traffic.

#include <cstdint>
#include <map>
#include <vector>

#include "core/runner.hpp"
#include "crypto/obs.hpp"
#include "crypto/seal_context.hpp"

namespace ldke::core {

struct DataPlaneConfig {
  double duration_s = 5.0;         ///< steady-state window length
  double tick_interval_s = 0.02;   ///< origination cadence
  std::size_t readings_per_tick = 32;  ///< origination attempts per tick
  std::size_t reading_bytes = 24;  ///< sensor payload size
  bool batched = true;             ///< batched SoA pipeline vs scalar sends

  /// Hash-refresh every this many seconds (0 = off).  All nodes advance
  /// their epoch in one event, like the runner's refresh driver.
  double refresh_interval_s = 0.0;
  /// Cluster eviction every this many seconds (0 = off, or no base
  /// station).  Cycles deterministically through the non-base clusters.
  double evict_interval_s = 0.0;
  std::size_t evict_batch = 1;  ///< clusters revoked per eviction event

  /// Advance the payload arena's generation every this many ticks
  /// (0 = never).  Bounds steady-state RSS; see payload_arena.hpp.
  std::uint32_t arena_generation_ticks = 16;
};

struct DataPlaneStats {
  std::uint64_t ticks = 0;
  std::uint64_t attempts = 0;    ///< origination attempts (incl. ineligible)
  std::uint64_t originated = 0;  ///< readings actually sent
  std::uint64_t batches_sealed = 0;   ///< seal_batch calls (one per key group)
  std::uint64_t max_group_lanes = 0;  ///< largest single seal_batch
  std::uint64_t refresh_rounds = 0;
  std::uint64_t clusters_evicted = 0;
  std::uint64_t arena_generations = 0;
  double sim_elapsed_s = 0.0;
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
  /// Crypto work charged to the engine rather than a node: the batched
  /// hop-wrap seals (scalar mode charges those to the sending node, so
  /// per-node attribution differs between modes; deployment-wide totals
  /// do not).
  [[nodiscard]] const crypto::CryptoCounters& crypto_stats() const noexcept {
    return crypto_;
  }

 private:
  /// One planned origination awaiting its group seal.
  struct PlannedReading {
    net::NodeId source = net::kNoNode;
    SensorNode::HopPlan plan;
  };

  void schedule_tick(net::Network& net);
  void schedule_refresh(net::Network& net);
  void schedule_evict(net::Network& net);

  void tick(net::Network& net);
  void originate_scalar(net::Network& net);
  void originate_batched(net::Network& net);
  void refresh_all();
  void evict_some(net::Network& net);

  /// Deterministic per-attempt payload fill (same bytes in both modes).
  void fill_payload(net::NodeId source);

  ProtocolRunner& runner_;
  DataPlaneConfig config_;
  DataPlaneStats stats_;
  crypto::CryptoCounters crypto_;

  sim::SimTime end_{};
  std::size_t next_source_ = 0;  ///< round-robin origination cursor

  // Eviction rotation, built lazily on the first eviction event.
  std::vector<ClusterId> evict_cycle_;
  bool evict_cycle_built_ = false;
  std::size_t next_evict_ = 0;

  // Reused batched-pipeline scratch (allocation-free steady state).
  support::Bytes payload_;
  std::vector<PlannedReading> plans_;
  std::map<std::array<std::uint8_t, crypto::kKeyBytes>,
           std::vector<std::uint32_t>>
      groups_;
  std::vector<crypto::SealRequest> reqs_;
  std::vector<crypto::SealedBatch> group_out_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> slots_;  // (group, item)
  crypto::SealContextCache seal_cache_{64};
};

}  // namespace ldke::core
