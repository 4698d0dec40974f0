#include "core/runner.hpp"

#include <algorithm>
#include <thread>

#include "support/logging.hpp"

namespace ldke::core {

namespace {
constexpr std::int64_t seconds_to_ns(double s) noexcept {
  return static_cast<std::int64_t>(s * 1e9);
}
}  // namespace

ProtocolRunner::ProtocolRunner(RunnerConfig config)
    : config_(config),
      protocol_(std::make_shared<const ProtocolConfig>(config.protocol)),
      sim_(config.seed),
      roots_(make_deployment(support::derive_seed(config.seed, 0x4b455953))) {
  // Provisioning below derives keys for every node; charge it to the
  // runner, not to any single sensor.
  crypto::ScopedCryptoCounters obs_guard{crypto_residual_};
  // K0, the hash-chain commitment, is preloaded into every node (§IV-D).
  commitment_ =
      crypto::KeyChain(roots_.chain_seed, config_.protocol.revocation_chain_length)
          .commitment();
  mutesla_commitment_ =
      crypto::KeyChain(mutesla_seed_of(roots_), config_.protocol.mutesla.chain_length)
          .commitment();

  auto topology = net::Topology::random_with_density(
      config_.node_count, config_.side_m, config_.density, sim_.rng());
  network_.emplace(sim_, std::move(topology), config_.channel,
                   config_.energy);
  network_->set_delivery_tracker(&delivery_tracker_);

  nodes_.reserve(config_.node_count);
  // One Provisioner for the whole deployment: the PRF midstates of the
  // roots are computed once, not once per node.
  const Provisioner provisioner{roots_};
  for (net::NodeId id = 0; id < config_.node_count; ++id) {
    NodeSecrets secrets =
        provisioner.provision(id, commitment_, mutesla_commitment_);
    if (id == 0 && config_.with_base_station) {
      auto bs = std::make_unique<BaseStation>(std::move(secrets), protocol_,
                                              roots_);
      base_station_ = bs.get();
      nodes_.push_back(std::move(bs));
    } else {
      nodes_.push_back(
          std::make_unique<SensorNode>(std::move(secrets), protocol_));
    }
    network_->attach(*nodes_.back());
  }
  setup_sharding();
}

void ProtocolRunner::setup_sharding() {
  const std::size_t lanes = std::min<std::size_t>(config_.kernel.lanes, 255);
  if (lanes <= 1) return;
  const net::ChannelConfig& ch = config_.channel;
  if (ch.loss_probability > 0.0 || ch.model_collisions || ch.csma) {
    LDKE_LOG(kWarn, "core")
        << "sharded kernel: loss/collision/CSMA channel models are "
           "serial-only; clamping lanes=" << lanes << " to 1";
    return;
  }
  // The lookahead must lower-bound every cross-lane latency; the
  // channel's minimum (empty-frame airtime + propagation) is exactly
  // that bound.
  const sim::SimTime lookahead = network_->channel().min_latency();
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  pool_ = std::make_unique<support::ThreadPool>(std::min(lanes, hw));
  sim_.enable_sharding(lanes, lookahead, *pool_);
  network_->enable_lanes(*sim_.kernel());
  lane_crypto_.assign(lanes, {});
  sim_.kernel()->set_lane_env(
      [this](std::uint32_t lane, const std::function<void()>& body) {
        crypto::ScopedCryptoCounters crypto_scope{lane_crypto_[lane]};
        body();
      });
}

void ProtocolRunner::fold_lane_state() {
  sim::ShardedKernel* kernel = sim_.kernel();
  if (kernel == nullptr) return;
  for (crypto::CryptoCounters& lane : lane_crypto_) {
    crypto_residual_ += lane;
    lane = {};
  }
  network_->fold_lane_metrics();

  // Lane-balance figures for ldke_trace's summary.  Gauges (overwrite
  // semantics) so repeated folds stay idempotent.
  obs::MetricRegistry& counters = network_->counters();
  counters.set_gauge("kernel.lanes",
                     static_cast<double>(kernel->lane_count()));
  counters.set_gauge("kernel.windows", static_cast<double>(kernel->windows()));
  counters.set_gauge("kernel.halo_packets",
                     static_cast<double>(kernel->halo_packets()));
  counters.set_gauge("kernel.lookahead_us",
                     kernel->lookahead().seconds() * 1e6);
  std::uint64_t min_events = ~0ull;
  std::uint64_t max_events = 0;
  for (std::size_t l = 0; l < kernel->lane_count(); ++l) {
    const sim::LaneStats& stats = kernel->lane_stats(l);
    const std::string prefix = "kernel.lane" + std::to_string(l);
    counters.set_gauge(prefix + ".events",
                       static_cast<double>(stats.events));
    counters.set_gauge(prefix + ".halo_out",
                       static_cast<double>(stats.halo_out));
    counters.set_gauge(prefix + ".busy_ms",
                       static_cast<double>(stats.busy_ns) * 1e-6);
    counters.set_gauge(prefix + ".barrier_wait_ms",
                       static_cast<double>(stats.barrier_wait_ns) * 1e-6);
    min_events = std::min(min_events, stats.events);
    max_events = std::max(max_events, stats.events);
  }
  // Relative event-count skew across lanes, 0 (balanced) .. 1.
  counters.set_gauge("kernel.lane_skew",
                     max_events == 0
                         ? 0.0
                         : static_cast<double>(max_events - min_events) /
                               static_cast<double>(max_events));
}

void ProtocolRunner::run_key_setup() {
  crypto::ScopedCryptoCounters obs_guard{crypto_residual_};
  const std::int64_t t0 = sim_.now().ns();
  const obs::SpanId span = timeline_.begin_span("key_setup", t0);
  // The phase boundaries are configuration, not measurements: record the
  // election and link windows as sub-spans up front so offline traffic
  // attribution can bucket packets by protocol step.
  timeline_.add_span("election", t0,
                     t0 + seconds_to_ns(config_.protocol.election_deadline_s));
  timeline_.add_span("link_establishment",
                     t0 + seconds_to_ns(config_.protocol.link_phase_start_s),
                     t0 + seconds_to_ns(config_.protocol.master_erase_s));
  network_->start_all();
  const double end = config_.protocol.master_erase_s + 0.05;
  sim_.run(sim::SimTime::from_seconds(end));
  timeline_.end_span(span, sim_.now().ns());
  fold_lane_state();
}

void ProtocolRunner::run_routing_setup(double settle_s) {
  if (base_station_ == nullptr) return;
  crypto::ScopedCryptoCounters obs_guard{crypto_residual_};
  const obs::SpanId span = timeline_.begin_span("routing", sim_.now().ns());
  // Each call is a fresh beacon round: forget previous gradients so the
  // flood propagates again (late-deployed nodes get routes this way).
  for (auto& node : nodes_) node->reset_routing();
  {
    // The root's beacon kick-off must land in the base station's lane.
    sim::ShardedKernel::LaneScope scope{
        network_->lane_of(base_station_->id())};
    base_station_->start_routing_root(*network_);
  }
  sim_.run(sim_.now() + sim::SimTime::from_seconds(settle_s));
  timeline_.end_span(span, sim_.now().ns());
  fold_lane_state();
}

void ProtocolRunner::run_for(double seconds) {
  crypto::ScopedCryptoCounters obs_guard{crypto_residual_};
  const obs::SpanId span = timeline_.begin_span("run", sim_.now().ns());
  sim_.run(sim_.now() + sim::SimTime::from_seconds(seconds));
  timeline_.end_span(span, sim_.now().ns());
  fold_lane_state();
}

void ProtocolRunner::run_recluster_round() {
  crypto::ScopedCryptoCounters obs_guard{crypto_residual_};
  const obs::SpanId span = timeline_.begin_span("recluster", sim_.now().ns());
  const ProtocolConfig& p = config_.protocol;
  for (auto& node : nodes_) {
    // Recluster kicks mutate node state and schedule node timers: bind
    // each to the node's home lane so its events stay lane-local.
    sim::ShardedKernel::LaneScope scope{network_->lane_of(node->id())};
    node->begin_recluster(*network_);
  }
  for (auto& node : nodes_) {
    const double link_at =
        p.link_phase_start_s + sim_.rng().uniform(0.0, p.link_phase_jitter_s);
    SensorNode* raw = node.get();
    sim::ShardedKernel::LaneScope scope{network_->lane_of(node->id())};
    sim_.schedule_in(sim::SimTime::from_seconds(link_at),
                     [raw, this] { raw->send_recluster_link_advert(*network_); });
    sim_.schedule_in(sim::SimTime::from_seconds(p.master_erase_s),
                     [raw, this] { raw->finish_recluster(*network_); });
  }
  sim_.run(sim_.now() + sim::SimTime::from_seconds(p.master_erase_s + 0.05));
  timeline_.end_span(span, sim_.now().ns());
  fold_lane_state();
  // The hop-envelope keys changed: rebuild the gradient under new keys.
  if (base_station_ != nullptr) run_routing_setup();
}

SensorNode& ProtocolRunner::deploy_new_node(net::Vec2 pos) {
  crypto::ScopedCryptoCounters obs_guard{crypto_residual_};
  const net::NodeId id = network_->deploy_position(pos);
  NodeSecrets secrets =
      provision_new_node(roots_, id, commitment_, mutesla_commitment_);
  nodes_.push_back(std::make_unique<SensorNode>(std::move(secrets), protocol_));
  network_->attach(*nodes_.back());
  sim::ShardedKernel::LaneScope scope{network_->lane_of(id)};
  nodes_.back()->start(*network_);
  return *nodes_.back();
}

}  // namespace ldke::core
