#pragma once
/// \file layer_probe.hpp
/// Per-layer attribution for the traced benchmark run, built entirely
/// from the simulator's public surface: nothing in src/ is instrumented.
///
///  * Taps    — Channel::set_sniffer, an obs::AuditSink on the network,
///              the network counters and channel tallies, crypto totals.
///  * Probes  — benchmark-owned no-op events scheduled through
///              Simulator::schedule_at that stamp the host clock at fixed
///              simulated instants (phase edges, refresh rounds, motion
///              epochs and the plain data ticks between them).
///  * Replays — per-call costs measured by feeding the workload's own
///              frames, sizes and mobility stream through the public entry
///              points (codec decode, SealContext, prf, Topology, Channel,
///              Simulator) after the measured window.
///
/// A layer's busy estimate is its count x its replayed per-call cost.

#include <chrono>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "core/runner.hpp"
#include "obs/audit.hpp"
#include "scenario/spec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Host-clock stamps taken by probe events at chosen simulated instants.
/// Probes run as a chain (each one schedules the next), so at most one is
/// ever pending and the queue depth the workload sees is unchanged but
/// for that one event.
class ProbeChain {
 public:
  /// Adds a probe at simulated time \p t_ns; returns its index.
  std::size_t add(std::int64_t t_ns);
  /// Schedules the first probe; call once, after every add().
  void arm(ldke::sim::Simulator& sim);

  [[nodiscard]] std::size_t fired() const noexcept { return fired_; }
  /// Host time at which probe \p i ran; only valid for fired probes.
  [[nodiscard]] Clock::time_point at(std::size_t i) const {
    return stamps_[i];
  }
  [[nodiscard]] bool has_fired(std::size_t i) const {
    return i < order_.size() && fired_flags_[i];
  }

 private:
  void schedule_next(ldke::sim::Simulator& sim);

  std::vector<std::int64_t> times_;
  std::vector<std::size_t> order_;  ///< probe indices sorted by time
  std::vector<Clock::time_point> stamps_;
  std::vector<char> fired_flags_;
  std::size_t next_ = 0;  ///< position in order_
  std::size_t fired_ = 0;
};

/// What the taps capture of one transmitted frame.
struct FrameSample {
  ldke::net::NodeId sender = 0;
  std::uint8_t kind = 0;
  std::int64_t t_ns = 0;
  std::vector<std::uint8_t> payload;
};

/// Installs the taps on a runner's network and accumulates what they see.
class LayerTaps {
 public:
  explicit LayerTaps(ldke::core::ProtocolRunner& runner);
  ~LayerTaps();
  LayerTaps(const LayerTaps&) = delete;
  LayerTaps& operator=(const LayerTaps&) = delete;

  [[nodiscard]] const std::vector<FrameSample>& samples() const noexcept {
    return samples_;
  }
  /// Originations sealed per multi-buffer group: DATA frames sent at a
  /// tick instant, grouped by (instant, wrap cluster).
  [[nodiscard]] double batch_lanes_mean() const;
  [[nodiscard]] const ldke::obs::AuditSink& audit() const noexcept {
    return audit_;
  }
  /// Seal contexts the nodes had to (re)build: distinct (node, cluster)
  /// pairs that sealed or could open a hop envelope, per key epoch.
  [[nodiscard]] std::uint64_t context_builds() const noexcept {
    return context_builds_ + epoch_pairs_.size();
  }

  /// Data-plane grid: ticks tell originations (sent on a tick) from
  /// forwards (sent on a delivery); refresh rounds start key epochs.
  void set_grid(std::int64_t origin_ns, std::int64_t tick_ns,
                std::int64_t refresh_ns) {
    tick_origin_ns_ = origin_ns;
    tick_period_ns_ = tick_ns;
    refresh_period_ns_ = refresh_ns;
  }

 private:
  void on_frame(const ldke::net::Packet& pkt);
  void count_contexts(ldke::net::NodeId sender, std::uint32_t cid,
                      std::int64_t now);

  ldke::core::ProtocolRunner& runner_;
  ldke::obs::AuditSink audit_{4096};  ///< only its event count is read
  std::uint64_t seen_ = 0;
  std::vector<FrameSample> samples_;
  std::int64_t tick_origin_ns_ = -1;
  std::int64_t tick_period_ns_ = 0;
  std::int64_t refresh_period_ns_ = 0;
  std::int64_t key_epoch_ = -1;
  std::unordered_set<std::uint64_t> epoch_pairs_;
  std::uint64_t context_builds_ = 0;
  std::int64_t group_t_ns_ = -1;
  std::vector<std::uint32_t> group_cids_;
  std::uint64_t tick_originations_ = 0;
  std::uint64_t tick_groups_ = 0;
};

/// Per-call costs from the replays, in nanoseconds.
struct ReplayCosts {
  double sim_ns_per_event = 0.0;
  double net_ns_per_rx = 0.0;
  double wsn_split_ns = 0.0;
  double wsn_inner_ns = 0.0;
  double seal_ns = 0.0;
  double open_ns = 0.0;
  double context_ns = 0.0;  ///< SealContext build from a derived key pair
  double prf_ns = 0.0;
  std::vector<double> epoch_us;  ///< Topology::apply_displacements per epoch
  double movers_per_epoch = 0.0;
};

/// Runs every replay against the workload's own inputs.  \p queue_depth
/// is the workload's scheduler high water; \p positions and \p range
/// describe the deployment at the start of the window; \p motion is set
/// for mobile workloads only.
ReplayCosts run_replays(const LayerTaps& taps, std::size_t queue_depth,
                        const std::vector<ldke::net::Vec2>& positions,
                        double range, const ldke::scenario::MotionConfig* motion,
                        double side_m, std::uint64_t seed);

double percentile(std::vector<double> values, double q);

}  // namespace perfbench
