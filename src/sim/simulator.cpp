#include "sim/simulator.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif

namespace ldke::sim {
namespace {

/// Raw monotonic tick source for wall-time accounting.  The TSC read is
/// a few nanoseconds — cheap enough to bracket every run() call — and
/// wall_seconds() converts ticks to seconds by calibrating against the
/// steady clock over the simulator's whole lifetime (invariant TSC makes
/// the ratio constant).  Non-x86 builds fall back to the steady clock
/// directly, where ticks already are nanoseconds.
std::uint64_t wall_ticks_now() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  return __rdtsc();
#else
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

std::int64_t steady_now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

SimTime saturating_add(SimTime a, SimTime b) noexcept {
  if (a.ns() > SimTime::max().ns() - b.ns()) return SimTime::max();
  return a + b;
}

}  // namespace

Simulator::Simulator(std::uint64_t seed, std::size_t lanes, SimTime lookahead)
    : rng_(seed),
      lanes_(std::max<std::size_t>(1, lanes)),
      lookahead_(lookahead) {
  for (std::size_t l = 0; l < lanes_.size(); ++l) {
    lanes_[l].rng = support::Xoshiro256(support::derive_seed(seed, 0x4c414e45u + l));
    lanes_[l].outbox.resize(lanes_.size());
  }
  if (lanes_.size() > 1) {
    assert(lookahead_.ns() > 0 && "lookahead window must be positive");
    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    pool_ = std::make_unique<support::ThreadPool>(std::min(lanes_.size(), hw));
  }
  // While this trial is alive, log lines on this thread carry the
  // simulated clock.  The previous provider is restored on destruction
  // so nested/stacked simulators behave.
  prev_provider_ = support::sim_time_provider();
  support::set_sim_time_provider({&Simulator::sim_time_of, this});
}

Simulator::~Simulator() {
  // Only restore if we are still the installed provider (a later
  // simulator on this thread may have replaced and restored already).
  const auto current = support::sim_time_provider();
  if (current.ctx == this) support::set_sim_time_provider(prev_provider_);
}

void Simulator::require_one_lane(const char* what) const {
  if (lanes_.size() > 1) {
    throw std::logic_error(std::string("Simulator::") + what +
                           " needs a one-lane simulator (kernel lanes == 1)");
  }
}

std::uint64_t Simulator::reserve_sequence(std::uint64_t n) {
  require_one_lane("reserve_sequence");
  return lanes_[0].scheduler.reserve_sequence(n);
}

EventId Simulator::schedule_reserved(SimTime when, std::uint64_t seq,
                                     EventFn action) {
  require_one_lane("schedule_reserved");
  return lanes_[0].scheduler.schedule_reserved(when, seq, std::move(action));
}

void Simulator::schedule_cross(std::uint32_t dst_lane, SimTime when,
                               EventFn action) {
  Lane& src = lanes_[t_lane_];
  assert(dst_lane < lanes_.size() && dst_lane != t_lane_);
  assert(when >= saturating_add(src.now, lookahead_) &&
         "halo event violates the lookahead contract");
  src.outbox[dst_lane].push_back(
      Halo{when, src.halo_seq++, t_lane_, std::move(action)});
  ++src.stats.halo_out;
}

std::size_t Simulator::pending_events() const noexcept {
  std::size_t total = 0;
  for (const Lane& lane : lanes_) {
    total += lane.scheduler.pending();
    for (const auto& box : lane.outbox) total += box.size();
  }
  return total;
}

std::uint64_t Simulator::events_executed() const noexcept {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.stats.events;
  return total;
}

std::size_t Simulator::queue_high_water() const noexcept {
  std::size_t deepest = 0;
  for (const Lane& lane : lanes_) {
    deepest = std::max(deepest, lane.scheduler.high_water());
  }
  return deepest;
}

std::uint64_t Simulator::halo_packets() const noexcept {
  std::uint64_t total = 0;
  for (const Lane& lane : lanes_) total += lane.stats.halo_out;
  return total;
}

std::uint64_t Simulator::run(SimTime until) {
  const std::uint64_t ticks_start = wall_ticks_now();
  if (tick_epoch_ == 0) {
    tick_epoch_ = ticks_start;
    steady_epoch_ns_ = steady_now_ns();
  }
  const std::uint64_t before = events_executed();
  if (lanes_.size() == 1) {
    run_lane(lanes_[0], until);
  } else {
    run_windows(until);
  }
  // Commit one time on every lane: the end of the requested window, even
  // when the event set drained early, or the last event's time.
  SimTime committed = until != SimTime::max() ? until : SimTime::zero();
  for (const Lane& lane : lanes_) committed = std::max(committed, lane.now);
  for (Lane& lane : lanes_) lane.now = committed;
  wall_ticks_ += wall_ticks_now() - ticks_start;
  return events_executed() - before;
}

void Simulator::run_lane(Lane& lane, SimTime last) {
  Scheduler& sched = lane.scheduler;
  while (!sched.empty()) {
    const SimTime when = sched.next_time();
    if (when > last) break;
    // Advance the clock *before* running the event so actions observe
    // now() == their scheduled time.
    lane.now = when;
    sched.run_next();
    ++lane.stats.events;
  }
}

void Simulator::run_windows(SimTime until) {
  // Phase drivers between runs (start_all, node joins, recluster kicks)
  // may have parked halos while no window was running.
  merge_halos();
  std::vector<std::uint64_t> busy_before(lanes_.size());
  for (;;) {
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
    const SimTime last = std::min(
        saturating_add(next, lookahead_) - SimTime::from_ns(1), until);
    for (std::size_t l = 0; l < lanes_.size(); ++l) {
      busy_before[l] = lanes_[l].stats.busy_ns;
    }
    pool_->parallel_for(lanes_.size(), [&](std::size_t l) {
      const auto lane = static_cast<std::uint32_t>(l);
      if (lane_env_) {
        lane_env_(lane, [&] { run_lane_window(lane, last); });
      } else {
        run_lane_window(lane, last);
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
}

void Simulator::run_lane_window(std::uint32_t index, SimTime last) {
  Lane& lane = lanes_[index];
  const auto t0 = steady_now_ns();
  t_lane_ = index;
  t_in_window_ = true;
  // Log lines and other sim-time readers on this worker thread see the
  // lane's clock while its window runs.
  const support::SimTimeProvider prev = support::sim_time_provider();
  support::set_sim_time_provider({&Simulator::sim_time_of, this});
  run_lane(lane, last);
  support::set_sim_time_provider(prev);
  t_in_window_ = false;
  t_lane_ = 0;
  lane.stats.busy_ns += static_cast<std::uint64_t>(steady_now_ns() - t0);
}

void Simulator::merge_halos() {
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
    merge_scratch_.clear();
  }
}

double Simulator::wall_seconds() const {
#if defined(__x86_64__) || defined(__i386__)
  if (wall_ticks_ == 0 || tick_epoch_ == 0) return 0.0;
  const std::uint64_t ticks_span = wall_ticks_now() - tick_epoch_;
  const std::int64_t steady_span_ns = steady_now_ns() - steady_epoch_ns_;
  if (ticks_span == 0 || steady_span_ns <= 0) return 0.0;
  const double ns_per_tick = static_cast<double>(steady_span_ns) /
                             static_cast<double>(ticks_span);
  return static_cast<double>(wall_ticks_) * ns_per_tick * 1e-9;
#else
  return static_cast<double>(wall_ticks_) * 1e-9;
#endif
}

}  // namespace ldke::sim
