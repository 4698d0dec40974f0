#pragma once
/// \file simulator.hpp
/// Discrete-event simulation kernel: a clock, a scheduler and a run loop.
/// One Simulator instance owns one trial; there is no global state, so
/// many trials can run concurrently on different threads.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/scheduler.hpp"
#include "sim/sharded.hpp"
#include "sim/time.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace ldke::sim {

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed = 1) : rng_(seed), seed_(seed) {
    // While this trial is alive, log lines on this thread carry the
    // simulated clock.  The previous provider is restored on
    // destruction so nested/stacked simulators behave.
    prev_provider_ = support::sim_time_provider();
    support::set_sim_time_provider({&Simulator::sim_time_of, this});
  }

  ~Simulator() {
    // Only restore if we are still the installed provider (a later
    // simulator on this thread may have replaced and restored already).
    const auto current = support::sim_time_provider();
    if (current.ctx == this) support::set_sim_time_provider(prev_provider_);
  }

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time.  Under a sharded kernel this is the calling
  /// thread's lane clock (lanes advance independently within a lookahead
  /// window); between runs every lane agrees on the committed time.
  [[nodiscard]] SimTime now() const noexcept {
    return kernel_ ? kernel_->now() : now_;
  }

  /// The trial's random stream (placement, timers, losses, workloads).
  /// Inside a parallel window this is the executing lane's stream —
  /// derived from (seed, lane), so a fixed lane count is deterministic.
  /// The protocol's setup phase draws nothing from it inside events,
  /// which is what makes setup metrics lane-count-invariant.
  [[nodiscard]] support::Xoshiro256& rng() noexcept {
    if (kernel_ && ShardedKernel::in_parallel_window()) {
      return lane_rngs_[ShardedKernel::current_lane()];
    }
    return rng_;
  }

  /// Schedules \p action \p delay after now.
  EventId schedule_in(SimTime delay, EventFn action) {
    if (kernel_) return kernel_->schedule(kernel_->now() + delay, std::move(action));
    return scheduler_.schedule(now_ + delay, std::move(action));
  }

  /// Schedules \p action at absolute time \p when (must be >= now).
  EventId schedule_at(SimTime when, EventFn action) {
    if (kernel_) return kernel_->schedule(when, std::move(action));
    return scheduler_.schedule(when, std::move(action));
  }

  /// Reserves \p n consecutive sequence numbers for schedule_reserved();
  /// see Scheduler::reserve_sequence.  Serial loop only: lanes number
  /// their events independently, so a reserved tie has no meaning
  /// across them.
  std::uint64_t reserve_sequence(std::uint64_t n) {
    require_serial("reserve_sequence");
    return scheduler_.reserve_sequence(n);
  }

  /// Schedules \p action at absolute time \p when (must be >= now)
  /// under a number from reserve_sequence().  Serial loop only.
  EventId schedule_reserved(SimTime when, std::uint64_t seq,
                            EventFn action) {
    require_serial("schedule_reserved");
    return scheduler_.schedule_reserved(when, seq, std::move(action));
  }

  bool cancel(EventId id) {
    if (kernel_) return kernel_->cancel(id);
    return scheduler_.cancel(id);
  }

  [[nodiscard]] std::size_t pending_events() const noexcept {
    return kernel_ ? kernel_->pending() : scheduler_.pending();
  }

  // ---- sharded parallel-in-trial kernel --------------------------------

  /// Switches this simulator onto a sharded kernel with \p lanes lanes.
  /// Must be called before any event is scheduled; \p pool must outlive
  /// the simulator.  lanes <= 1 is a no-op (the plain serial loop *is*
  /// the one-lane special case).
  void enable_sharding(std::size_t lanes, SimTime lookahead,
                       support::ThreadPool& pool) {
    if (lanes <= 1 || kernel_) return;
    kernel_ = std::make_unique<ShardedKernel>(lanes, lookahead, pool);
    lane_rngs_.reserve(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      lane_rngs_.emplace_back(support::derive_seed(seed_, 0x4c414e45u + l));
    }
  }

  /// The sharded kernel, or nullptr when running serially.
  [[nodiscard]] ShardedKernel* kernel() noexcept { return kernel_.get(); }
  [[nodiscard]] const ShardedKernel* kernel() const noexcept {
    return kernel_.get();
  }

  /// Runs until the event set drains or \p until is reached, whichever
  /// comes first.  Returns the number of events executed.
  std::uint64_t run(SimTime until = SimTime::max());

  /// Runs exactly one event if any is pending; returns whether one ran.
  bool step();

  /// Requests that run() return after the current event completes (the
  /// current window's barrier under a sharded kernel).
  void stop() noexcept {
    stop_requested_ = true;
    if (kernel_) kernel_->request_stop();
  }

  [[nodiscard]] std::uint64_t events_executed() const noexcept {
    return kernel_ ? kernel_->events_executed() : events_executed_;
  }

  /// Deepest the event queue has been over the simulator's lifetime
  /// (deepest single lane under a sharded kernel).
  [[nodiscard]] std::size_t queue_high_water() const noexcept {
    return kernel_ ? kernel_->queue_high_water() : scheduler_.high_water();
  }

  /// Wall-clock time spent inside run() so far, for wall-time-per-
  /// sim-second reporting.  Sampled with the cycle counter on x86 so the
  /// per-run() overhead stays out of the event loop's budget; converted
  /// to seconds lazily against the steady clock.
  [[nodiscard]] double wall_seconds() const;

 private:
  static double sim_time_of(const void* ctx) noexcept {
    return static_cast<const Simulator*>(ctx)->now().seconds();
  }

  void require_serial(const char* what) const {
    if (kernel_) {
      throw std::logic_error(
          std::string("Simulator::") + what +
          " needs the serial event loop (kernel lanes == 1)");
    }
  }

  Scheduler scheduler_;
  support::Xoshiro256 rng_;
  std::uint64_t seed_;
  std::unique_ptr<ShardedKernel> kernel_;
  /// Per-lane event-time random streams; see rng().
  std::vector<support::Xoshiro256> lane_rngs_;
  SimTime now_ = SimTime::zero();
  std::uint64_t events_executed_ = 0;
  bool stop_requested_ = false;
  std::uint64_t wall_ticks_ = 0;    ///< run() time in cycle-counter ticks
  std::uint64_t tick_epoch_ = 0;    ///< tick reading at first run() entry
  std::int64_t steady_epoch_ns_ = 0;  ///< steady clock at the same instant
  support::SimTimeProvider prev_provider_;
};

}  // namespace ldke::sim
