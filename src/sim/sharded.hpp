#pragma once
/// \file sharded.hpp
/// Conservative parallel discrete-event kernel for in-trial parallelism.
///
/// The serial event loop caps trial size: a 100k-node setup runs 3.1 s
/// on one core while the others idle.  This kernel partitions the event
/// set into spatial *lanes* (the network layer maps each node to a lane
/// by grid-cell strip; one Scheduler per lane) and runs all lanes
/// concurrently in *lookahead windows*: with W the minimum cross-lane
/// latency (smallest frame airtime plus propagation delay), every event
/// in [T, T+W) — T the global minimum pending time — can only influence
/// other lanes at or after T+W, so the lanes execute the window without
/// any synchronization and exchange the boundary-crossing ("halo")
/// events at a barrier.
///
/// Determinism is non-negotiable and comes from two disciplines:
///  - within a lane, events run in (time, lane-local sequence) order —
///    exactly the serial scheduler's discipline;
///  - halo events are merged at each barrier in canonical
///    (time, source lane, source sequence) order before being scheduled
///    into their destination lane, so the destination's tie-break order
///    is a pure function of the event set, never of thread timing.
/// An N-lane run therefore produces bit-identical per-seed setup
/// metrics to the 1-lane run (regression-tested), the same argument the
/// trial-level mutex-free merge in run_setup_point established.
///
/// The kernel is deliberately ignorant of nodes, packets and radios: it
/// deals in lanes, clocks and EventFns.  The net layer decides which
/// lane a receiver lives in and calls schedule_cross(); the embedder
/// (ProtocolRunner) supplies a LaneEnv hook that installs per-lane
/// thread context (payload arena, crypto counter sink) around window
/// execution.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "support/thread_pool.hpp"

namespace ldke::sim {

/// Lane-count configuration, carried by RunnerConfig.  lanes=1 keeps the
/// plain serial loop — the sharded path is the same code with more
/// lanes, not a behavioral fork.  The lookahead window is always the
/// channel's minimum cross-lane latency, and the worker count
/// min(lanes, hardware_concurrency()).
struct KernelConfig {
  /// Spatial lanes (grid-cell strips).  1 = serial; clamped to 255.
  std::size_t lanes = 1;
};

/// Per-lane observability, exported into the MetricRegistry after each
/// run (windows, halo traffic, barrier stall, imbalance).
struct LaneStats {
  std::uint64_t events = 0;          ///< events executed in this lane
  std::uint64_t halo_out = 0;        ///< cross-lane events this lane emitted
  std::uint64_t halo_in = 0;         ///< cross-lane events merged into it
  std::uint64_t busy_ns = 0;         ///< wall time inside window execution
  std::uint64_t barrier_wait_ns = 0; ///< wall time idle at window barriers
  std::size_t queue_high_water = 0;  ///< deepest this lane's pending set got
};

class ShardedKernel {
 public:
  /// \p lookahead must lower-bound every cross-lane event latency: a
  /// halo scheduled from lane time t must carry a timestamp >= t +
  /// lookahead (the net layer guarantees this with min-frame airtime +
  /// propagation delay).
  ShardedKernel(std::size_t lanes, SimTime lookahead,
                support::ThreadPool& pool);

  ShardedKernel(const ShardedKernel&) = delete;
  ShardedKernel& operator=(const ShardedKernel&) = delete;

  [[nodiscard]] std::size_t lane_count() const noexcept {
    return lanes_.size();
  }
  [[nodiscard]] SimTime lookahead() const noexcept { return lookahead_; }

  // ---- lane binding ----------------------------------------------------

  /// The lane the calling thread is bound to (0 when unbound, which is
  /// also the serial default — main-thread work lands in lane 0).
  [[nodiscard]] static std::uint32_t current_lane() noexcept {
    return t_lane_;
  }
  /// True while the calling thread is executing a parallel window (as
  /// opposed to a main-thread LaneScope during serial phases).  Shared
  /// resources that are only safe serially (the trial RNG) key off this.
  [[nodiscard]] static bool in_parallel_window() noexcept {
    return t_in_window_;
  }

  /// Binds the calling thread to \p lane for the scope's lifetime, so
  /// serial phase drivers (start_all, recluster scheduling) route each
  /// node's events into its home lane.
  class LaneScope {
   public:
    LaneScope(const ShardedKernel&, std::uint32_t lane) noexcept
        : prev_(t_lane_) {
      t_lane_ = lane;
    }
    ~LaneScope() { t_lane_ = prev_; }
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;

   private:
    std::uint32_t prev_;
  };

  // ---- scheduling (routed by the bound lane) ---------------------------

  /// Lane-local clock of the calling thread's lane; between runs every
  /// lane clock equals the committed global time.
  [[nodiscard]] SimTime now() const noexcept { return lanes_[t_lane_].now; }

  EventId schedule(SimTime when, EventFn action);
  bool cancel(EventId id);

  /// Schedules a cross-lane (halo) event.  Must satisfy the lookahead
  /// contract (\p when >= emitting lane's now + lookahead); the event is
  /// buffered in a per-lane-pair outbox and merged into \p dst_lane at
  /// the next window barrier in canonical (when, src lane, seq) order.
  void schedule_cross(std::uint32_t dst_lane, SimTime when, EventFn action);

  // ---- run loop --------------------------------------------------------

  /// Wraps per-lane window execution on the worker thread — the embedder
  /// installs lane-local context (payload arena scope, crypto counter
  /// sink) and invokes body().
  using LaneEnv =
      std::function<void(std::uint32_t lane, const std::function<void()>& body)>;
  void set_lane_env(LaneEnv env) { lane_env_ = std::move(env); }

  /// Runs lookahead windows until the event set drains or \p until is
  /// reached (events at exactly \p until still run, matching the serial
  /// loop); returns events executed.
  std::uint64_t run(SimTime until);

  /// Makes run() return after the current window's barrier.
  void request_stop() noexcept {
    stop_requested_.store(true, std::memory_order_relaxed);
  }

  // ---- stats -----------------------------------------------------------

  [[nodiscard]] std::uint64_t events_executed() const noexcept;
  [[nodiscard]] std::size_t pending() const noexcept;
  /// Deepest any single lane's pending set got (the per-lane figure the
  /// scheduler slab sizing cares about).
  [[nodiscard]] std::size_t queue_high_water() const noexcept;
  [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
  [[nodiscard]] std::uint64_t halo_packets() const noexcept;
  [[nodiscard]] const LaneStats& lane_stats(std::size_t lane) const {
    return lanes_[lane].stats;
  }

 private:
  /// One halo event in flight between lanes.  seq is the emission order
  /// within the source lane — the canonical tie-break.
  struct Halo {
    SimTime when;
    std::uint64_t seq = 0;
    std::uint32_t src = 0;
    EventFn action;
  };

  struct alignas(64) Lane {
    Scheduler scheduler;
    SimTime now = SimTime::zero();
    /// Outboxes indexed by destination lane; only this lane's thread
    /// writes them during a window, the barrier (single-threaded) drains.
    std::vector<std::vector<Halo>> outbox;
    std::uint64_t halo_seq = 0;
    LaneStats stats;
  };

  /// Drains every outbox into the destination schedulers in canonical
  /// (when, src, seq) order.  Single-threaded (barrier / run entry).
  void merge_halos();
  void run_lane_window(std::uint32_t lane, SimTime window_end_excl);

  static double lane_time_of(const void* ctx) noexcept;

  std::vector<Lane> lanes_;
  SimTime lookahead_;
  support::ThreadPool& pool_;
  LaneEnv lane_env_;
  std::uint64_t windows_ = 0;
  std::atomic<bool> stop_requested_{false};
  std::vector<Halo> merge_scratch_;

  // Inline and constinit, like PayloadArena::current_: no TLS init
  // wrapper for UBSan to flag as a store through a null pointer.
  static constinit inline thread_local std::uint32_t t_lane_ = 0;
  static constinit inline thread_local bool t_in_window_ = false;
};

}  // namespace ldke::sim
