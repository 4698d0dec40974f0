#include "obs/trace_sink.hpp"

namespace ldke::obs {

void TraceSink::emit(const JsonValue& line) {
  os_ << line.dump() << '\n';
  ++lines_;
}

void TraceSink::write_meta(std::string_view tool, JsonValue fields) {
  JsonValue line;
  line.set("type", "meta");
  line.set("v", kTraceSchemaVersion);
  line.set("tool", tool);
  if (fields.is_object()) {
    for (const auto& [k, v] : fields.as_object()) line.set(k, v);
  }
  emit(line);
}

void TraceSink::write_span(const TraceSpan& span) {
  JsonValue line;
  line.set("type", "span");
  line.set("name", span.name);
  line.set("t0", span.t0_ns);
  line.set("t1", span.t1_ns);
  line.set("depth", span.depth);
  emit(line);
}

void TraceSink::write_packet(std::int64_t t_ns, std::uint32_t sender,
                             std::string_view kind, std::uint32_t bytes) {
  JsonValue line;
  line.set("type", "pkt");
  line.set("t", t_ns);
  line.set("sender", sender);
  line.set("kind", kind);
  line.set("bytes", bytes);
  emit(line);
}

void TraceSink::write_audit(const AuditEvent& event) {
  JsonValue line;
  line.set("type", "audit");
  line.set("t", event.t_ns);
  line.set("kind", audit_kind_name(event.kind));
  line.set("actor", event.actor);
  if (event.subject != kAuditNoSubject) line.set("subject", event.subject);
  line.set("arg", event.arg);
  emit(line);
}

void TraceSink::write_health(const HealthSample& sample) {
  JsonValue line;
  line.set("type", "health");
  line.set("t", sample.t_ns);
  line.set("phase", sample.phase);
  line.set("active", sample.active_nodes);
  line.set("live_links", sample.live_links);
  line.set("secured_links", sample.secured_links);
  line.set("secured_frac", sample.secured_link_fraction);
  line.set("components", sample.key_components);
  line.set("largest", sample.largest_component);
  line.set("delivered", sample.delivered);
  line.set("p50_ms", sample.latency_p50_ms);
  line.set("p95_ms", sample.latency_p95_ms);
  line.set("epoch_skew", sample.epoch_skew);
  line.set("epoch_mean", sample.epoch_mean);
  emit(line);
}

void TraceSink::write_delivery(const DeliveryTracker::Sample& sample) {
  JsonValue line;
  line.set("type", "delivery");
  line.set("src", sample.source);
  line.set("t_tx", sample.t_tx_ns);
  line.set("t_rx", sample.t_rx_ns);
  emit(line);
}

void TraceSink::write_counters(JsonValue snapshot) {
  JsonValue line;
  line.set("type", "counters");
  line.set("snapshot", std::move(snapshot));
  emit(line);
}

void TraceSink::write_trace_drops(std::string_view family, std::uint64_t seen,
                                  std::uint64_t recorded,
                                  std::uint64_t dropped) {
  JsonValue line;
  line.set("type", "trace_drops");
  line.set("family", family);
  line.set("seen", seen);
  line.set("recorded", recorded);
  line.set("dropped", dropped);
  emit(line);
}

}  // namespace ldke::obs
