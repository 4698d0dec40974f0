#pragma once
/// \file simulator.hpp
/// Discrete-event simulation kernel: per-lane clocks, schedulers and the
/// one run loop.  One Simulator instance owns one trial; there is no
/// global state, so many trials can run concurrently on different
/// threads.
///
/// A simulator has one lane unless it is built with more.  One lane runs
/// inline on the calling thread.  More lanes partition the event set
/// into spatial lanes (the network layer maps each node to a lane by
/// grid-cell strip) and run them concurrently in *lookahead windows*:
/// with W the minimum cross-lane latency (smallest frame airtime plus
/// propagation delay), every event in [T, T+W) — T the global minimum
/// pending time — can only influence other lanes at or after T+W, so
/// the lanes execute the window without any synchronization and
/// exchange the boundary-crossing ("halo") events at a barrier.
///
/// Determinism comes from two disciplines:
///  - within a lane, events run in (time, lane-local sequence) order;
///  - halo events are merged at each barrier in canonical
///    (time, source lane, source sequence) order before being scheduled
///    into their destination lane, so the destination's tie-break order
///    is a pure function of the event set, never of thread timing.
/// An N-lane run therefore produces bit-identical per-seed setup
/// metrics to the one-lane run (tests/integration/lane_determinism_test).
///
/// The simulator is ignorant of nodes, packets and radios: it deals in
/// lanes, clocks and EventFns.  The net layer decides which lane a
/// receiver lives in and calls schedule_cross(); the embedder
/// (ProtocolRunner) supplies a LaneEnv hook that installs per-lane
/// thread context (its crypto counter sink) around window execution.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"

namespace ldke::sim {

/// Lane-count configuration, carried by RunnerConfig.  A simulator built
/// with one lane runs every event inline on the calling thread; more
/// lanes run the same per-lane loop in lookahead windows on worker
/// threads.  The window is always the channel's minimum cross-lane
/// latency, and the worker count min(lanes, hardware_concurrency()).
struct KernelConfig {
  /// Spatial lanes (grid-cell strips).  1 = one lane; clamped to 255.
  std::size_t lanes = 1;
};

/// Per-lane figures, published as the `kernel.*` gauges after each
/// multi-lane run (windows, halo traffic, barrier stall, imbalance).
struct LaneStats {
  std::uint64_t events = 0;          ///< events executed in this lane
  std::uint64_t halo_out = 0;        ///< cross-lane events this lane emitted
  std::uint64_t halo_in = 0;         ///< cross-lane events merged into it
  std::uint64_t busy_ns = 0;         ///< wall time inside window execution
  std::uint64_t barrier_wait_ns = 0; ///< wall time idle at window barriers
};

class Simulator {
 public:
  /// \p lanes spatial lanes (at least 1).  \p lookahead must
  /// lower-bound every cross-lane event latency: a halo scheduled from
  /// lane time t must carry a timestamp >= t + lookahead (the net layer
  /// guarantees this with min-frame airtime + propagation delay).  It is
  /// read only with more than one lane.
  explicit Simulator(std::uint64_t seed = 1, std::size_t lanes = 1,
                     SimTime lookahead = {});
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  [[nodiscard]] std::size_t lane_count() const noexcept {
    return lanes_.size();
  }
  [[nodiscard]] SimTime lookahead() const noexcept { return lookahead_; }

  // ---- lane binding ----------------------------------------------------

  /// The lane the calling thread is bound to (0 when unbound, so
  /// main-thread work lands in lane 0; a one-lane run only has lane 0).
  [[nodiscard]] static std::uint32_t current_lane() noexcept {
    return t_lane_;
  }

  /// Binds the calling thread to \p lane for the scope's lifetime, so
  /// phase drivers between runs (start_all, recluster scheduling) route
  /// each node's events into its home lane.  At one lane every node's
  /// lane is 0, the thread's lane already.
  class LaneScope {
   public:
    explicit LaneScope(std::uint32_t lane) noexcept : prev_(t_lane_) {
      t_lane_ = lane;
    }
    ~LaneScope() { t_lane_ = prev_; }
    LaneScope(const LaneScope&) = delete;
    LaneScope& operator=(const LaneScope&) = delete;

   private:
    std::uint32_t prev_;
  };

  // ---- scheduling (routed by the bound lane) ---------------------------

  /// Current simulated time: the calling lane's clock.  Lanes advance
  /// independently within a lookahead window; between runs every lane
  /// agrees on the committed time.
  [[nodiscard]] SimTime now() const noexcept { return lanes_[t_lane_].now; }

  /// The trial's random stream (placement, timers, losses, workloads).
  /// Inside a multi-lane window this is the executing lane's stream —
  /// derived from (seed, lane), so a fixed lane count is deterministic.
  /// A one-lane run never enters a window.  The protocol's setup phase
  /// draws nothing from it inside events, which is what makes setup
  /// metrics lane-count-invariant.
  [[nodiscard]] support::Xoshiro256& rng() noexcept {
    return t_in_window_ ? lanes_[t_lane_].rng : rng_;
  }

  /// Schedules \p action \p delay after now.
  EventId schedule_in(SimTime delay, EventFn action) {
    Lane& lane = lanes_[t_lane_];
    return lane.scheduler.schedule(lane.now + delay, std::move(action));
  }

  /// Schedules \p action at absolute time \p when (must be >= now).
  EventId schedule_at(SimTime when, EventFn action) {
    return lanes_[t_lane_].scheduler.schedule(when, std::move(action));
  }

  /// Schedules a cross-lane (halo) event into \p dst_lane, another lane
  /// than the calling one.  \p when must satisfy the lookahead contract
  /// (>= the calling lane's now + lookahead); the event is buffered in a
  /// per-lane-pair outbox and merged into \p dst_lane at the next window
  /// barrier in canonical (when, src lane, seq) order.
  void schedule_cross(std::uint32_t dst_lane, SimTime when, EventFn action);

  /// Reserves \p n consecutive sequence numbers for schedule_reserved();
  /// see Scheduler::reserve_sequence.  One lane only: lanes number their
  /// events independently, so a reserved tie has no meaning across them.
  std::uint64_t reserve_sequence(std::uint64_t n);

  /// Schedules \p action at absolute time \p when (must be >= now)
  /// under a number from reserve_sequence().  One lane only.
  EventId schedule_reserved(SimTime when, std::uint64_t seq, EventFn action);

  /// Cancels a pending event of the calling lane.  A node only ever
  /// cancels its own timers, and those were scheduled from its lane.
  bool cancel(EventId id) { return lanes_[t_lane_].scheduler.cancel(id); }

  [[nodiscard]] std::size_t pending_events() const noexcept;

  // ---- run loop --------------------------------------------------------

  /// Wraps each lane's window on its worker thread: the embedder
  /// installs lane-local context (the crypto counter sink) and invokes
  /// body().  Used only with more than one lane.
  using LaneEnv =
      std::function<void(std::uint32_t lane, const std::function<void()>& body)>;
  void set_lane_env(LaneEnv env) { lane_env_ = std::move(env); }

  /// Runs until the event set drains or \p until is reached, whichever
  /// comes first; events at exactly \p until still run.  Every lane's
  /// clock then stands at \p until (at the last event's time when
  /// \p until is max()).  Returns the number of events executed.
  std::uint64_t run(SimTime until = SimTime::max());

  [[nodiscard]] std::uint64_t events_executed() const noexcept;

  /// Deepest the event queue has been over the simulator's lifetime
  /// (deepest single lane with more than one).
  [[nodiscard]] std::size_t queue_high_water() const noexcept;

  /// Wall-clock time spent inside run() so far, for wall-time-per-
  /// sim-second reporting.  Sampled with the cycle counter on x86 so the
  /// per-run() overhead stays out of the event loop's budget; converted
  /// to seconds lazily against the steady clock.
  [[nodiscard]] double wall_seconds() const;

  // ---- multi-lane figures ----------------------------------------------

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

  /// Cache-line aligned so concurrent lanes never false-share.
  struct alignas(64) Lane {
    Scheduler scheduler;
    SimTime now = SimTime::zero();
    support::Xoshiro256 rng;  ///< event-time stream inside a window
    /// Outboxes indexed by destination lane; only this lane's thread
    /// writes them during a window, the barrier (single-threaded) drains.
    std::vector<std::vector<Halo>> outbox;
    std::uint64_t halo_seq = 0;
    LaneStats stats;
  };

  static double sim_time_of(const void* ctx) noexcept {
    return static_cast<const Simulator*>(ctx)->now().seconds();
  }

  void require_one_lane(const char* what) const;
  /// Runs \p lane's events up to and including time \p last.
  static void run_lane(Lane& lane, SimTime last);
  /// The lookahead windows of a multi-lane run() on the worker pool.
  void run_windows(SimTime until);
  /// One lane's share of a window, on its worker thread.
  void run_lane_window(std::uint32_t lane, SimTime last);
  /// Drains every outbox into the destination schedulers in canonical
  /// (when, src, seq) order.  Single-threaded (barrier / run entry).
  void merge_halos();

  support::Xoshiro256 rng_;
  std::vector<Lane> lanes_;
  SimTime lookahead_;
  LaneEnv lane_env_;
  std::uint64_t windows_ = 0;
  std::vector<Halo> merge_scratch_;
  /// Worker threads of a multi-lane run (none with one lane).
  std::unique_ptr<support::ThreadPool> pool_;
  std::uint64_t wall_ticks_ = 0;    ///< run() time in cycle-counter ticks
  std::uint64_t tick_epoch_ = 0;    ///< tick reading at first run() entry
  std::int64_t steady_epoch_ns_ = 0;  ///< steady clock at the same instant
  support::SimTimeProvider prev_provider_;

  // Inline and constinit: every TU touches the variable directly, with
  // no TLS init wrapper for UBSan to flag as a store through a null
  // pointer.
  static constinit inline thread_local std::uint32_t t_lane_ = 0;
  /// True while the calling thread executes a multi-lane window (as
  /// opposed to a main-thread LaneScope between runs).
  static constinit inline thread_local bool t_in_window_ = false;
};

}  // namespace ldke::sim
