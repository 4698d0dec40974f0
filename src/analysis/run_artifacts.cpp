#include "analysis/run_artifacts.hpp"

#include <ostream>

#include "obs/trace_sink.hpp"

namespace ldke::analysis {

namespace {

obs::JsonValue kind_traffic_json(const std::vector<KindTraffic>& rows) {
  obs::JsonValue out;
  for (const KindTraffic& row : rows) {
    obs::JsonValue entry;
    entry.set("packets", row.packets);
    entry.set("bytes", row.bytes);
    out.set(row.kind, std::move(entry));
  }
  return out.is_null() ? obs::JsonValue{obs::JsonObject{}} : out;
}

obs::JsonValue cluster_sizes_json(const support::IntHistogram& hist) {
  obs::JsonValue counts;
  for (std::size_t size = 0; size <= hist.max_value(); ++size) {
    const std::uint64_t n = hist.count(size);
    if (n > 0) counts.set(std::to_string(size), n);
  }
  return counts.is_null() ? obs::JsonValue{obs::JsonObject{}} : counts;
}

/// The trace_drops record of one family, written only when its log
/// evicted records.
template <class Log>
void write_drops(obs::TraceSink& sink, std::string_view family,
                 const Log* log) {
  if (log == nullptr || log->total_dropped() == 0) return;
  sink.write_trace_drops(family, log->total_seen(), log->total_recorded(),
                         log->total_dropped());
}

obs::JsonValue phases_json(const std::vector<obs::TraceSpan>& phases) {
  obs::JsonValue arr{obs::JsonArray{}};
  for (const obs::TraceSpan& span : phases) {
    obs::JsonValue entry;
    entry.set("name", span.name);
    entry.set("t0", span.t0_ns);
    entry.set("t1", span.t1_ns);
    entry.set("depth", static_cast<std::uint64_t>(span.depth));
    arr.push(std::move(entry));
  }
  return arr;
}

}  // namespace

RunSummary collect_run_summary(core::ProtocolRunner& runner,
                               std::string_view tool) {
  RunSummary s;
  s.tool = tool;

  const core::RunnerConfig& cfg = runner.config();
  s.config.node_count = cfg.node_count;
  s.config.density = cfg.density;
  s.config.side_m = cfg.side_m;
  s.config.seed = cfg.seed;

  s.setup = core::collect_setup_metrics(runner);

  sim::Simulator& sim = runner.sim();
  s.sim.events_executed = sim.events_executed();
  s.sim.queue_high_water = sim.queue_high_water();
  s.sim.wall_seconds = sim.wall_seconds();
  s.sim.sim_time_s = sim.now().seconds();

  net::Channel& ch = runner.network().channel();
  s.channel.transmissions = ch.transmissions();
  s.channel.deliveries = ch.deliveries();
  s.channel.bytes_sent = ch.bytes_sent();
  s.channel.collisions = ch.collisions();
  s.channel.losses = ch.losses();
  const net::Channel::KindArray kind_packets = ch.tx_packets_by_kind();
  const net::Channel::KindArray kind_bytes = ch.tx_bytes_by_kind();
  for (std::size_t k = 0; k < net::kPacketKindCount; ++k) {
    if (kind_packets[k] == 0) continue;
    s.channel.by_kind.push_back(KindTraffic{
        std::string{net::packet_kind_name(static_cast<net::PacketKind>(k))},
        kind_packets[k], kind_bytes[k]});
  }

  s.crypto = runner.crypto_totals();

  net::EnergyModel& energy = runner.network().energy();
  s.energy.total_j = energy.total_j();
  s.energy.tx_j = energy.tx_j();
  s.energy.rx_j = energy.rx_j();

  const obs::DeliveryTracker& dt = runner.deliveries();
  s.latency.originated = dt.originated();
  s.latency.delivered = dt.delivered();
  s.latency.unmatched = dt.unmatched();
  s.latency.p50_ms = dt.latency_percentile_s(0.50) * 1e3;
  s.latency.p90_ms = dt.latency_percentile_s(0.90) * 1e3;
  s.latency.p95_ms = dt.latency_percentile_s(0.95) * 1e3;
  s.latency.p99_ms = dt.latency_percentile_s(0.99) * 1e3;
  s.latency.max_ms = dt.latency_percentile_s(1.0) * 1e3;

  s.phases = runner.timeline().spans();
  s.counters = runner.network().counters().snapshot_json();
  return s;
}

obs::JsonValue to_json(const RunSummary& s) {
  obs::JsonValue out;
  out.set("schema_version", s.schema_version);
  out.set("tool", s.tool);

  obs::JsonValue config;
  config.set("node_count", static_cast<std::uint64_t>(s.config.node_count));
  config.set("density", s.config.density);
  config.set("side_m", s.config.side_m);
  config.set("seed", s.config.seed);
  out.set("config", std::move(config));

  obs::JsonValue setup;
  setup.set("cluster_count", static_cast<std::uint64_t>(s.setup.cluster_count));
  setup.set("head_fraction", s.setup.head_fraction);
  setup.set("mean_cluster_size", s.setup.mean_cluster_size);
  setup.set("mean_keys_per_node", s.setup.mean_keys_per_node);
  setup.set("setup_messages_per_node", s.setup.setup_messages_per_node);
  setup.set("singleton_clusters",
            static_cast<std::uint64_t>(s.setup.singleton_clusters));
  setup.set("undecided_nodes",
            static_cast<std::uint64_t>(s.setup.undecided_nodes));
  setup.set("setup_span_s", s.setup.setup_span_s);
  setup.set("realized_density", s.setup.realized_density);
  setup.set("cluster_sizes", cluster_sizes_json(s.setup.cluster_sizes));
  out.set("setup", std::move(setup));

  obs::JsonValue sim;
  sim.set("events_executed", s.sim.events_executed);
  sim.set("queue_high_water", s.sim.queue_high_water);
  sim.set("wall_seconds", s.sim.wall_seconds);
  sim.set("sim_time_s", s.sim.sim_time_s);
  out.set("sim", std::move(sim));

  obs::JsonValue channel;
  channel.set("transmissions", s.channel.transmissions);
  channel.set("deliveries", s.channel.deliveries);
  channel.set("bytes_sent", s.channel.bytes_sent);
  channel.set("collisions", s.channel.collisions);
  channel.set("losses", s.channel.losses);
  channel.set("by_kind", kind_traffic_json(s.channel.by_kind));
  out.set("channel", std::move(channel));

  obs::JsonValue crypto;
  crypto.set("seals", s.crypto.seals);
  crypto.set("opens", s.crypto.opens);
  crypto.set("open_failures", s.crypto.open_failures);
  crypto.set("prf_calls", s.crypto.prf_calls);
  crypto.set("sealed_bytes", s.crypto.sealed_bytes);
  crypto.set("opened_bytes", s.crypto.opened_bytes);
  crypto.set("macs", s.crypto.macs);
  out.set("crypto", std::move(crypto));

  obs::JsonValue energy;
  energy.set("total_j", s.energy.total_j);
  energy.set("tx_j", s.energy.tx_j);
  energy.set("rx_j", s.energy.rx_j);
  out.set("energy", std::move(energy));

  obs::JsonValue latency;
  latency.set("originated", s.latency.originated);
  latency.set("delivered", s.latency.delivered);
  latency.set("unmatched", s.latency.unmatched);
  latency.set("p50_ms", s.latency.p50_ms);
  latency.set("p90_ms", s.latency.p90_ms);
  latency.set("p95_ms", s.latency.p95_ms);
  latency.set("p99_ms", s.latency.p99_ms);
  latency.set("max_ms", s.latency.max_ms);
  out.set("latency", std::move(latency));

  out.set("phases", phases_json(s.phases));
  out.set("counters", s.counters);
  return out;
}

void write_run_summary(std::ostream& os, const RunSummary& summary) {
  os << to_json(summary).dump() << '\n';
}

void write_trace_jsonl(std::ostream& os, core::ProtocolRunner& runner,
                       std::string_view tool,
                       const TraceArtifacts& artifacts) {
  obs::TraceSink sink{os};
  const core::RunnerConfig& cfg = runner.config();
  obs::JsonValue meta;
  meta.set("nodes", static_cast<std::uint64_t>(cfg.node_count));
  meta.set("density", cfg.density);
  meta.set("seed", cfg.seed);
  meta.set("sim_time_s", runner.sim().now().seconds());
  for (const auto& [key, value] : artifacts.meta_extras) {
    meta.set(key, value);
  }
  sink.write_meta(tool, std::move(meta));

  for (const obs::TraceSpan& span : runner.timeline().spans()) {
    sink.write_span(span);
  }
  if (artifacts.packets != nullptr) {
    for (const net::TraceRecord& r : artifacts.packets->merged()) {
      sink.write_packet(r.time_ns, r.sender, net::packet_kind_name(r.kind),
                        r.size_bytes);
    }
  }
  if (artifacts.audit != nullptr) {
    for (const obs::AuditEvent& event : artifacts.audit->merged()) {
      sink.write_audit(event);
    }
  }
  for (const obs::DeliveryTracker::Sample& sample :
       runner.deliveries().samples()) {
    sink.write_delivery(sample);
  }
  for (const obs::HealthSample& sample : artifacts.health) {
    sink.write_health(sample);
  }
  sink.write_counters(runner.network().counters().snapshot_json());
  write_drops(sink, "pkt", artifacts.packets);
  write_drops(sink, "audit", artifacts.audit);
}

}  // namespace ldke::analysis
