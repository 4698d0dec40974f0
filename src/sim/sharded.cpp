#include "sim/sharded.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>

#include "support/logging.hpp"

namespace ldke::sim {

namespace {

std::uint64_t wall_ns_now() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// until is inclusive (serial run() executes events at exactly `until`),
/// windows are exclusive-ended; saturate instead of overflowing at max().
SimTime exclusive_cap(SimTime until) noexcept {
  if (until == SimTime::max()) return SimTime::max();
  return until + SimTime::from_ns(1);
}

SimTime saturating_add(SimTime a, SimTime b) noexcept {
  if (a.ns() > SimTime::max().ns() - b.ns()) return SimTime::max();
  return a + b;
}

}  // namespace

ShardedKernel::ShardedKernel(std::size_t lanes, SimTime lookahead,
                             support::ThreadPool& pool)
    : lanes_(std::max<std::size_t>(1, lanes)),
      lookahead_(lookahead),
      pool_(pool) {
  assert(lookahead_.ns() > 0 && "lookahead window must be positive");
  for (Lane& lane : lanes_) lane.outbox.resize(lanes_.size());
}

EventId ShardedKernel::schedule(SimTime when, EventFn action) {
  // High-water tracking happens at window ends, not per schedule — this
  // is the hot path.
  return lanes_[t_lane_].scheduler.schedule(when, std::move(action));
}

bool ShardedKernel::cancel(EventId id) {
  // Cancellation is lane-local by construction: a node only ever cancels
  // its own timers, and those were scheduled from its lane.
  return lanes_[t_lane_].scheduler.cancel(id);
}

void ShardedKernel::schedule_cross(std::uint32_t dst_lane, SimTime when,
                                   EventFn action) {
  Lane& src = lanes_[t_lane_];
  assert(dst_lane < lanes_.size());
  assert(when >= saturating_add(src.now, lookahead_) &&
         "halo event violates the lookahead contract");
  src.outbox[dst_lane].push_back(
      Halo{when, src.halo_seq++, t_lane_, std::move(action)});
  ++src.stats.halo_out;
}

double ShardedKernel::lane_time_of(const void* ctx) noexcept {
  return static_cast<const Lane*>(ctx)->now.seconds();
}

void ShardedKernel::merge_halos() {
  for (std::uint32_t dst = 0; dst < lanes_.size(); ++dst) {
    merge_scratch_.clear();
    for (Lane& src : lanes_) {
      auto& box = src.outbox[dst];
      for (Halo& h : box) merge_scratch_.push_back(std::move(h));
      box.clear();
    }
    if (merge_scratch_.empty()) continue;
    // Canonical cross-lane order: (time, source lane, source sequence).
    // Scheduling in this order hands the destination scheduler a
    // deterministic tie-break sequence, independent of thread timing.
    std::sort(merge_scratch_.begin(), merge_scratch_.end(),
              [](const Halo& a, const Halo& b) noexcept {
                if (a.when != b.when) return a.when < b.when;
                if (a.src != b.src) return a.src < b.src;
                return a.seq < b.seq;
              });
    Lane& lane = lanes_[dst];
    for (Halo& h : merge_scratch_) {
      lane.scheduler.schedule(h.when, std::move(h.action));
      ++lane.stats.halo_in;
    }
    lane.stats.queue_high_water =
        std::max(lane.stats.queue_high_water, lane.scheduler.high_water());
    merge_scratch_.clear();
  }
}

void ShardedKernel::run_lane_window(std::uint32_t lane_index,
                                    SimTime window_end_excl) {
  Lane& lane = lanes_[lane_index];
  const std::uint64_t t0 = wall_ns_now();
  t_lane_ = lane_index;
  t_in_window_ = true;
  // Log lines and other sim-time readers on this worker thread see the
  // lane's clock while its window runs.
  const support::SimTimeProvider prev = support::sim_time_provider();
  support::set_sim_time_provider({&ShardedKernel::lane_time_of, &lane});

  Scheduler& sched = lane.scheduler;
  while (!sched.empty()) {
    const SimTime when = sched.next_time();
    if (when >= window_end_excl) break;
    lane.now = when;
    sched.run_next();
    ++lane.stats.events;
  }
  lane.stats.queue_high_water =
      std::max(lane.stats.queue_high_water, sched.high_water());

  support::set_sim_time_provider(prev);
  t_in_window_ = false;
  t_lane_ = 0;
  lane.stats.busy_ns += wall_ns_now() - t0;
}

std::uint64_t ShardedKernel::run(SimTime until) {
  stop_requested_.store(false, std::memory_order_relaxed);
  // Serial phase drivers (start_all, node joins, recluster kicks) may
  // have parked halos while no window was running.
  merge_halos();

  std::uint64_t executed_before = events_executed();
  const SimTime cap = exclusive_cap(until);
  std::vector<std::uint64_t> busy_before(lanes_.size());

  while (!stop_requested_.load(std::memory_order_relaxed)) {
    SimTime next = SimTime::max();
    for (Lane& lane : lanes_) {
      if (!lane.scheduler.empty()) {
        next = std::min(next, lane.scheduler.next_time());
      }
    }
    if (next == SimTime::max() || next > until) break;

    // Conservative lookahead window: every event in [next, next + W) can
    // only affect other lanes at or after next + W, so the lanes run the
    // whole window concurrently without synchronizing.
    const SimTime window_end_excl =
        std::min(saturating_add(next, lookahead_), cap);
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      busy_before[l] = lanes_[l].stats.busy_ns;
    }
    pool_.parallel_for(lanes_.size(), [&](std::size_t l) {
      const auto lane = static_cast<std::uint32_t>(l);
      if (lane_env_) {
        lane_env_(lane, [&] { run_lane_window(lane, window_end_excl); });
      } else {
        run_lane_window(lane, window_end_excl);
      }
    });
    ++windows_;
    // Stall = how much sooner each lane finished than the window's
    // critical path; the balance figure ldke_trace reports.
    std::uint64_t max_busy = 0;
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      max_busy =
          std::max(max_busy, lanes_[l].stats.busy_ns - busy_before[l]);
    }
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      lanes_[l].stats.barrier_wait_ns +=
          max_busy - (lanes_[l].stats.busy_ns - busy_before[l]);
    }
    merge_halos();
  }

  // Match the serial loop: the clock advances to the end of the
  // requested window even when the event set drained early.
  if (until != SimTime::max()) {
    for (Lane& lane : lanes_) lane.now = std::max(lane.now, until);
  }
  return events_executed() - executed_before;
}

std::uint64_t ShardedKernel::events_executed() const noexcept {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.stats.events;
  return total;
}

std::size_t ShardedKernel::pending() const noexcept {
  std::size_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.scheduler.pending();
    for (const auto& box : lane.outbox) total += box.size();
  }
  return total;
}

std::size_t ShardedKernel::queue_high_water() const noexcept {
  std::size_t deepest = 0;
  for (const Lane& lane : lanes_) {
    deepest = std::max(deepest, lane.stats.queue_high_water);
  }
  return deepest;
}

std::uint64_t ShardedKernel::halo_packets() const noexcept {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.stats.halo_out;
  return total;
}

}  // namespace ldke::sim
