#include "core/dataplane.hpp"

#include <algorithm>
#include <numeric>
#include <span>
#include <stdexcept>

namespace ldke::core {

DataPlaneEngine::DataPlaneEngine(ProtocolRunner& runner,
                                 DataPlaneConfig config)
    : runner_(runner), config_(config) {
  if (config_.tick_interval_s <= 0.0) {
    throw std::invalid_argument("DataPlaneEngine: tick_interval_s must be > 0");
  }
  // Fail at construction, not mid-run: lanes cannot host engine events
  // that mutate node state across the whole deployment.
  if (runner_.sim().lane_count() > 1) {
    throw std::invalid_argument(
        "DataPlaneEngine requires a one-lane simulator (kernel lanes == 1): "
        "engine events mutate node state across the whole deployment");
  }
  payload_.resize(config_.reading_bytes);
}

DataPlaneStats DataPlaneEngine::run() {
  net::Network& net = runner_.network();
  sim::Simulator& sim = runner_.sim();

  const sim::SimTime start = sim.now();
  end_ = start + sim::SimTime::from_seconds(config_.duration_s);
  const obs::SpanId span =
      runner_.timeline().begin_span("steady_state", start.ns());

  // Drivers self-reschedule until their next firing would pass end_.
  // Initial scheduling order (tick, refresh, evict) fixes the execution
  // order at coincident timestamps.
  schedule_tick(net);
  if (config_.refresh_interval_s > 0.0) schedule_refresh(net);
  if (config_.evict_interval_s > 0.0 && runner_.base_station() != nullptr) {
    schedule_evict(net);
  }

  sim.run(end_);
  stats_.sim_elapsed_s = (sim.now() - start).seconds();
  runner_.timeline().end_span(span, sim.now().ns());
  return stats_;
}

void DataPlaneEngine::schedule_tick(net::Network& net) {
  const sim::SimTime next =
      runner_.sim().now() + sim::SimTime::from_seconds(config_.tick_interval_s);
  if (next > end_) return;
  runner_.sim().schedule_at(next, [this, &net] {
    ++stats_.ticks;
    originate(net);
    schedule_tick(net);
  });
}

void DataPlaneEngine::schedule_refresh(net::Network& net) {
  const sim::SimTime next =
      runner_.sim().now() +
      sim::SimTime::from_seconds(config_.refresh_interval_s);
  if (next > end_) return;
  runner_.sim().schedule_at(next, [this, &net] {
    refresh_all();
    schedule_refresh(net);
  });
}

void DataPlaneEngine::schedule_evict(net::Network& net) {
  const sim::SimTime next =
      runner_.sim().now() +
      sim::SimTime::from_seconds(config_.evict_interval_s);
  if (next > end_) return;
  runner_.sim().schedule_at(next, [this, &net] {
    evict_some(net);
    schedule_evict(net);
  });
}

void DataPlaneEngine::fill_payload(net::NodeId source) {
  // Pseudo-sensor sample: deterministic in (source, attempt ordinal).
  const std::uint64_t seq = stats_.attempts;
  for (std::size_t i = 0; i < payload_.size(); ++i) {
    payload_[i] = static_cast<std::uint8_t>(source * 131 + seq * 29 + i * 7);
  }
}

void DataPlaneEngine::originate(net::Network& net) {
  // Sources take turns in deployment order, joiners after it in id
  // order: ids follow space, so an id walk would sweep across the field.
  const std::span<const net::NodeId> order =
      net.topology().deployment_order();
  const std::size_t n = runner_.node_count();
  const net::NodeId bs =
      runner_.base_station() ? runner_.base_station()->id() : net::kNoNode;
  for (std::size_t k = 0; k < config_.readings_per_tick; ++k) {
    SensorNode& node = runner_.node(
        next_source_ < order.size() ? order[next_source_]
                                    : static_cast<net::NodeId>(next_source_));
    next_source_ = (next_source_ + 1) % n;
    if (node.id() == bs) continue;
    fill_payload(node.id());
    ++stats_.attempts;
    if (node.send_reading(net, payload_)) ++stats_.originated;
  }
}

void DataPlaneEngine::refresh_all() {
  // Sleeping / departed nodes miss the round (their radio is off and a
  // real mote's clock keeps no global epoch); wakers catch up through
  // SensorNode::catch_up_hash_epoch against stats().refresh_rounds.
  net::Network& net = runner_.network();
  ++stats_.refresh_rounds;
  const BaseStation* bs = runner_.base_station();
  net.audit(obs::AuditKind::kRefreshRound, bs != nullptr ? bs->id() : 0,
            obs::kAuditNoSubject, stats_.refresh_rounds);
  for (const auto& node : runner_.nodes()) {
    if (!net.is_active(node->id())) continue;
    node->apply_hash_refresh();
    net.audit(obs::AuditKind::kRefreshApplied, node->id(), node->cid(),
              node->hash_epoch());
  }
}

void DataPlaneEngine::evict_some(net::Network& net) {
  BaseStation* bs = runner_.base_station();
  if (bs == nullptr) return;
  if (!evict_cycle_built_) {
    evict_cycle_built_ = true;
    // Rotate in the heads' deployment order (a cluster id is its head's
    // id; joiners rank after every original node, by id), not in id
    // order, which would sweep across the field.
    const std::span<const net::NodeId> order =
        net.topology().deployment_order();
    std::vector<std::size_t> rank(runner_.node_count());
    std::iota(rank.begin(), rank.end(), std::size_t{0});
    for (std::size_t draw = 0; draw < order.size(); ++draw) {
      rank[order[draw]] = draw;
    }
    for (const auto& node : runner_.nodes()) {
      const ClusterId cid = node->cid();
      if (cid == kNoCluster || cid == bs->cid()) continue;
      evict_cycle_.push_back(cid);
    }
    std::sort(evict_cycle_.begin(), evict_cycle_.end(),
              [&](ClusterId a, ClusterId b) { return rank[a] < rank[b]; });
    evict_cycle_.erase(
        std::unique(evict_cycle_.begin(), evict_cycle_.end()),
        evict_cycle_.end());
  }
  if (evict_cycle_.empty()) return;
  std::vector<ClusterId> victims;
  for (std::size_t k = 0;
       k < config_.evict_batch && next_evict_ < evict_cycle_.size(); ++k) {
    victims.push_back(evict_cycle_[next_evict_++]);
  }
  if (victims.empty()) return;  // cycle exhausted: stop evicting
  if (bs->revoke_clusters(net, victims)) {
    stats_.clusters_evicted += victims.size();
  }
}

}  // namespace ldke::core
