#include "obs/trace_reader.hpp"

#include <algorithm>
#include <istream>
#include <map>
#include <sstream>
#include <unordered_map>

#include "obs/trace_sink.hpp"
#include "support/table.hpp"

namespace ldke::obs {

std::optional<TraceData> load_trace(std::istream& in) {
  TraceData data;
  bool have_meta = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    auto parsed = JsonValue::parse(line);
    if (!parsed || !parsed->is_object()) {
      ++data.skipped_lines;
      continue;
    }
    const std::string type = parsed->string_at("type");
    if (type == "meta") {
      const auto version = static_cast<int>(parsed->int_at("v"));
      if (version > kTraceSchemaVersion) return std::nullopt;
      data.version = version;
      data.meta = std::move(*parsed);
      have_meta = true;
    } else if (type == "span") {
      TraceSpan span;
      span.name = parsed->string_at("name");
      span.t0_ns = parsed->int_at("t0");
      span.t1_ns = parsed->int_at("t1", -1);
      span.depth = static_cast<std::uint32_t>(parsed->int_at("depth"));
      data.spans.push_back(std::move(span));
    } else if (type == "pkt") {
      TracePacket pkt;
      pkt.t_ns = parsed->int_at("t");
      pkt.sender = static_cast<std::uint32_t>(parsed->int_at("sender"));
      pkt.kind = parsed->string_at("kind");
      pkt.bytes = static_cast<std::uint32_t>(parsed->int_at("bytes"));
      data.packets.push_back(std::move(pkt));
    } else if (type == "audit") {
      TraceAudit audit;
      audit.t_ns = parsed->int_at("t");
      audit.kind = parsed->string_at("kind");
      audit.actor = static_cast<std::uint32_t>(parsed->int_at("actor"));
      audit.subject = static_cast<std::uint32_t>(
          parsed->int_at("subject", kAuditNoSubject));
      audit.arg = static_cast<std::uint64_t>(parsed->int_at("arg"));
      data.audits.push_back(std::move(audit));
    } else if (type == "health") {
      HealthSample sample;
      sample.t_ns = parsed->int_at("t");
      sample.phase = parsed->string_at("phase");
      sample.active_nodes =
          static_cast<std::uint32_t>(parsed->int_at("active"));
      sample.live_links =
          static_cast<std::uint32_t>(parsed->int_at("live_links"));
      sample.secured_links =
          static_cast<std::uint32_t>(parsed->int_at("secured_links"));
      sample.secured_link_fraction = parsed->number_at("secured_frac");
      sample.key_components =
          static_cast<std::uint32_t>(parsed->int_at("components"));
      sample.largest_component =
          static_cast<std::uint32_t>(parsed->int_at("largest"));
      sample.delivered =
          static_cast<std::uint64_t>(parsed->int_at("delivered"));
      sample.latency_p50_ms = parsed->number_at("p50_ms");
      sample.latency_p95_ms = parsed->number_at("p95_ms");
      sample.epoch_skew =
          static_cast<std::uint64_t>(parsed->int_at("epoch_skew"));
      sample.epoch_mean = parsed->number_at("epoch_mean");
      data.health.push_back(std::move(sample));
    } else if (type == "delivery") {
      DeliveryTracker::Sample sample;
      sample.source = static_cast<std::uint32_t>(parsed->int_at("src"));
      sample.t_tx_ns = parsed->int_at("t_tx");
      sample.t_rx_ns = parsed->int_at("t_rx");
      data.deliveries.push_back(sample);
    } else if (type == "counters") {
      const JsonValue* snapshot = parsed->find("snapshot");
      if (snapshot != nullptr) data.counters = *snapshot;
    } else if (type == "trace_drops") {
      // Writers before the family field only ever reported the packet
      // log; their "filtered" member is ignored.
      const auto dropped =
          static_cast<std::uint64_t>(parsed->int_at("dropped"));
      data.trace_dropped += dropped;
      data.dropped_by_family[parsed->string_at("family", "pkt")] += dropped;
    } else {
      ++data.skipped_lines;  // unknown type: forward-compatible skip
    }
  }
  if (!have_meta) return std::nullopt;
  return data;
}

std::vector<PhaseRow> phase_rows(const TraceData& data) {
  std::vector<PhaseRow> rows;
  rows.reserve(data.spans.size());
  for (const TraceSpan& span : data.spans) {
    PhaseRow row;
    row.name = span.name;
    row.depth = span.depth;
    row.start_s = static_cast<double>(span.t0_ns) * 1e-9;
    row.end_s = span.closed() ? static_cast<double>(span.t1_ns) * 1e-9 : -1.0;
    for (const TracePacket& pkt : data.packets) {
      if (span.contains(pkt.t_ns)) {
        ++row.packets;
        row.bytes += pkt.bytes;
      }
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

namespace {

std::vector<KindRow> kind_rows_filtered(const TraceData& data,
                                        std::int64_t t0_ns,
                                        std::int64_t t1_ns) {
  std::map<std::string, KindRow> by_kind;
  for (const TracePacket& pkt : data.packets) {
    if (pkt.t_ns < t0_ns || (t1_ns >= 0 && pkt.t_ns >= t1_ns)) continue;
    KindRow& row = by_kind[pkt.kind];
    row.kind = pkt.kind;
    ++row.packets;
    row.bytes += pkt.bytes;
  }
  std::vector<KindRow> rows;
  rows.reserve(by_kind.size());
  for (auto& [_, row] : by_kind) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(), [](const KindRow& a, const KindRow& b) {
    return a.bytes != b.bytes ? a.bytes > b.bytes : a.kind < b.kind;
  });
  return rows;
}

}  // namespace

std::vector<KindRow> kind_rows(const TraceData& data) {
  return kind_rows_filtered(data, INT64_MIN, -1);
}

std::vector<KindRow> kind_rows_in_phase(const TraceData& data,
                                        std::string_view phase) {
  for (const TraceSpan& span : data.spans) {
    if (span.name == phase) {
      return kind_rows_filtered(data, span.t0_ns,
                                span.closed() ? span.t1_ns : -1);
    }
  }
  return {};
}

std::vector<TalkerRow> top_talkers(const TraceData& data, std::size_t n) {
  std::unordered_map<std::uint32_t, TalkerRow> by_sender;
  for (const TracePacket& pkt : data.packets) {
    TalkerRow& row = by_sender[pkt.sender];
    row.sender = pkt.sender;
    ++row.packets;
    row.bytes += pkt.bytes;
  }
  std::vector<TalkerRow> rows;
  rows.reserve(by_sender.size());
  for (auto& [_, row] : by_sender) rows.push_back(row);
  std::sort(rows.begin(), rows.end(),
            [](const TalkerRow& a, const TalkerRow& b) {
              return a.bytes != b.bytes ? a.bytes > b.bytes
                                        : a.sender < b.sender;
            });
  if (rows.size() > n) rows.resize(n);
  return rows;
}

namespace {

/// Percentile report over a pre-collected latency sample set.
LatencyReport report_from_samples(std::vector<double> ms) {
  LatencyReport report;
  report.count = ms.size();
  if (ms.empty()) return report;
  double sum = 0.0;
  for (const double v : ms) sum += v;
  std::sort(ms.begin(), ms.end());
  const auto at = [&](double q) {
    const auto idx =
        static_cast<std::size_t>(q * static_cast<double>(ms.size() - 1) + 0.5);
    return ms[std::min(idx, ms.size() - 1)];
  };
  report.mean_ms = sum / static_cast<double>(ms.size());
  report.p50_ms = at(0.50);
  report.p90_ms = at(0.90);
  report.p95_ms = at(0.95);
  report.p99_ms = at(0.99);
  report.max_ms = ms.back();
  return report;
}

const TraceSpan* find_first_span(const TraceData& data,
                                 std::string_view name) {
  for (const TraceSpan& span : data.spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

}  // namespace

LatencyReport latency_report(const TraceData& data) {
  std::vector<double> ms;
  ms.reserve(data.deliveries.size());
  for (const DeliveryTracker::Sample& s : data.deliveries) {
    ms.push_back(s.latency_s() * 1e3);
  }
  return report_from_samples(std::move(ms));
}

LatencyReport latency_report_in_phase(const TraceData& data,
                                      std::string_view phase) {
  const TraceSpan* span = find_first_span(data, phase);
  if (span == nullptr) return {};
  std::vector<double> ms;
  for (const DeliveryTracker::Sample& s : data.deliveries) {
    if (span->contains(s.t_rx_ns)) ms.push_back(s.latency_s() * 1e3);
  }
  return report_from_samples(std::move(ms));
}

std::optional<RateReport> steady_rate(const TraceData& data) {
  const TraceSpan* span = find_first_span(data, "steady_state");
  if (span == nullptr || !span->closed()) span = find_first_span(data, "run");
  if (span == nullptr || !span->closed() || span->t1_ns <= span->t0_ns) {
    return std::nullopt;
  }
  RateReport rate;
  rate.window = span->name;
  rate.window_s = static_cast<double>(span->t1_ns - span->t0_ns) * 1e-9;
  for (const TracePacket& pkt : data.packets) {
    if (span->contains(pkt.t_ns)) ++rate.packets;
  }
  rate.pkts_per_s = static_cast<double>(rate.packets) / rate.window_s;
  return rate;
}

double setup_messages_per_node(const TraceData& data) {
  const std::int64_t nodes = data.node_count();
  if (nodes <= 0) return 0.0;
  std::uint64_t setup_msgs = 0;
  for (const TracePacket& pkt : data.packets) {
    if (pkt.kind == "hello" || pkt.kind == "link_advert") ++setup_msgs;
  }
  return static_cast<double>(setup_msgs) / static_cast<double>(nodes);
}

std::vector<AuditKindRow> audit_kind_rows(const TraceData& data) {
  std::vector<AuditKindRow> rows;
  std::unordered_map<std::string, std::size_t> index;
  for (const TraceAudit& audit : data.audits) {
    auto [it, inserted] = index.emplace(audit.kind, rows.size());
    if (inserted) {
      AuditKindRow row;
      row.kind = audit.kind;
      row.first_s = static_cast<double>(audit.t_ns) * 1e-9;
      rows.push_back(std::move(row));
    }
    AuditKindRow& row = rows[it->second];
    ++row.count;
    row.last_s = static_cast<double>(audit.t_ns) * 1e-9;
  }
  return rows;
}

std::vector<ConvergenceRow> eviction_convergence(const TraceData& data) {
  std::vector<ConvergenceRow> rows;
  for (std::size_t i = 0; i < data.audits.size(); ++i) {
    const TraceAudit& evict = data.audits[i];
    if (evict.kind != "eviction_issued") continue;
    ConvergenceRow row;
    row.evict_s = static_cast<double>(evict.t_ns) * 1e-9;
    row.victim_cid = evict.subject;
    // The stream is time-sorted, so the first later refresh_applied is
    // the earliest surviving node to land a fresh epoch.
    for (std::size_t j = i + 1; j < data.audits.size(); ++j) {
      const TraceAudit& refresh = data.audits[j];
      if (refresh.kind == "refresh_applied" && refresh.t_ns >= evict.t_ns) {
        row.converge_ms =
            static_cast<double>(refresh.t_ns - evict.t_ns) * 1e-6;
        row.converged = true;
        break;
      }
    }
    rows.push_back(row);
  }
  return rows;
}

// ---- rendering ------------------------------------------------------------

std::string render_phases(const TraceData& data) {
  support::TextTable table({"phase", "start_s", "end_s", "dur_s", "pkts",
                            "bytes"});
  for (const PhaseRow& row : phase_rows(data)) {
    std::string name(row.depth * 2, ' ');
    name += row.name;
    table.add_row({std::move(name), support::fmt(row.start_s),
                   row.end_s < 0 ? "open" : support::fmt(row.end_s),
                   row.end_s < 0 ? "-"
                                 : support::fmt(row.end_s - row.start_s),
                   std::to_string(row.packets), std::to_string(row.bytes)});
  }
  return table.render();
}

std::string render_traffic(const TraceData& data) {
  std::uint64_t total_bytes = 0;
  for (const TracePacket& pkt : data.packets) total_bytes += pkt.bytes;
  support::TextTable table({"kind", "pkts", "bytes", "bytes/pkt", "share"});
  for (const KindRow& row : kind_rows(data)) {
    const double share =
        total_bytes == 0 ? 0.0
                         : static_cast<double>(row.bytes) /
                               static_cast<double>(total_bytes) * 100.0;
    table.add_row({row.kind, std::to_string(row.packets),
                   std::to_string(row.bytes),
                   support::fmt(static_cast<double>(row.bytes) /
                                    static_cast<double>(row.packets),
                                1),
                   support::fmt(share, 1) + "%"});
  }
  std::string out = table.render();
  // Sustained rate over the steady-state window (falls back to "run").
  if (const auto rate = steady_rate(data)) {
    out += rate->window + " window: " + std::to_string(rate->packets) +
           " pkts / " + support::fmt(rate->window_s, 3) + " s = " +
           support::fmt(rate->pkts_per_s, 1) + " pkts/s\n";
  }
  return out;
}

std::string render_talkers(const TraceData& data, std::size_t n) {
  support::TextTable table({"sender", "pkts", "bytes"});
  for (const TalkerRow& row : top_talkers(data, n)) {
    table.add_row({std::to_string(row.sender), std::to_string(row.packets),
                   std::to_string(row.bytes)});
  }
  return table.render();
}

std::string render_latency(const TraceData& data) {
  const LatencyReport report = latency_report(data);
  support::TextTable table({"window", "delivered", "mean_ms", "p50_ms",
                            "p90_ms", "p95_ms", "p99_ms", "max_ms"});
  const auto add = [&table](const char* window, const LatencyReport& r) {
    table.add_row({window, std::to_string(r.count), support::fmt(r.mean_ms),
                   support::fmt(r.p50_ms), support::fmt(r.p90_ms),
                   support::fmt(r.p95_ms), support::fmt(r.p99_ms),
                   support::fmt(r.max_ms)});
  };
  add("all", report);
  // Steady-state DATA view, when the trace carries that window.
  const LatencyReport steady = latency_report_in_phase(data, "steady_state");
  if (steady.count > 0) add("steady_state", steady);
  return table.render();
}

std::string render_audit(const TraceData& data) {
  if (data.audits.empty()) {
    return "no audit records (v1 trace, or run without an audit sink)\n";
  }
  support::TextTable kinds({"kind", "count", "first_s", "last_s"});
  for (const AuditKindRow& row : audit_kind_rows(data)) {
    kinds.add_row({row.kind, std::to_string(row.count),
                   support::fmt(row.first_s, 3), support::fmt(row.last_s, 3)});
  }
  std::string out = "audit events by kind\n" + kinds.render();

  // Lifecycle timeline: the structural events only — per-node refresh /
  // replay noise stays in the census above.
  static constexpr std::string_view kLifecycle[] = {
      "eviction_issued", "evicted",  "join_started", "join_admitted",
      "join_rejected",   "node_left", "node_failed",  "partition",
      "heal",            "refresh_round", "nonce_wrap_abort",
  };
  constexpr std::size_t kMaxTimelineRows = 40;
  std::uint64_t lifecycle_total = 0;
  support::TextTable timeline({"t_s", "kind", "actor", "subject", "arg"});
  for (const TraceAudit& audit : data.audits) {
    bool structural = false;
    for (const std::string_view name : kLifecycle) {
      if (audit.kind == name) {
        structural = true;
        break;
      }
    }
    if (!structural) continue;
    ++lifecycle_total;
    if (lifecycle_total > kMaxTimelineRows) continue;
    timeline.add_row(
        {support::fmt(static_cast<double>(audit.t_ns) * 1e-9, 3), audit.kind,
         std::to_string(audit.actor),
         audit.subject == kAuditNoSubject ? "-" : std::to_string(audit.subject),
         std::to_string(audit.arg)});
  }
  if (lifecycle_total > 0) {
    out += "\nlifecycle timeline\n" + timeline.render();
    if (lifecycle_total > kMaxTimelineRows) {
      out += "(+" + std::to_string(lifecycle_total - kMaxTimelineRows) +
             " more lifecycle events)\n";
    }
  }

  const auto convergence = eviction_convergence(data);
  if (!convergence.empty()) {
    support::TextTable conv({"evict_s", "victim_cid", "re-key in"});
    for (const ConvergenceRow& row : convergence) {
      conv.add_row({support::fmt(row.evict_s, 3),
                    row.victim_cid == kAuditNoSubject
                        ? "-"
                        : std::to_string(row.victim_cid),
                    row.converged ? support::fmt(row.converge_ms, 1) + " ms"
                                  : "pending at trace end"});
    }
    out += "\neviction -> re-key convergence\n" + conv.render();
  }
  return out;
}

std::string render_health(const TraceData& data) {
  if (data.health.empty()) {
    return "no health records (v1 trace, or run without a health probe)\n";
  }
  support::TextTable table({"phase", "t_s", "active", "secured/links",
                            "secured_frac", "comps", "largest", "delivered",
                            "p50_ms", "p95_ms", "epoch_skew"});
  for (const HealthSample& s : data.health) {
    table.add_row({s.phase, support::fmt(static_cast<double>(s.t_ns) * 1e-9, 3),
                   std::to_string(s.active_nodes),
                   std::to_string(s.secured_links) + "/" +
                       std::to_string(s.live_links),
                   support::fmt(s.secured_link_fraction, 3),
                   std::to_string(s.key_components),
                   std::to_string(s.largest_component),
                   std::to_string(s.delivered), support::fmt(s.latency_p50_ms),
                   support::fmt(s.latency_p95_ms),
                   std::to_string(s.epoch_skew)});
  }
  return "protocol health by phase\n" + table.render();
}

std::string render_summary(const TraceData& data) {
  std::uint64_t total_bytes = 0;
  std::int64_t last_ns = 0;
  for (const TracePacket& pkt : data.packets) {
    total_bytes += pkt.bytes;
    if (pkt.t_ns > last_ns) last_ns = pkt.t_ns;
  }
  support::TextTable table({"metric", "value"});
  table.add_row({"schema version", std::to_string(data.version)});
  table.add_row({"tool", data.meta.string_at("tool", "?")});
  table.add_row({"nodes", std::to_string(data.node_count())});
  table.add_row({"density", support::fmt(data.meta.number_at("density"), 1)});
  table.add_row(
      {"seed", std::to_string(data.meta.int_at("seed"))});
  table.add_row({"packets traced", std::to_string(data.packets.size())});
  table.add_row({"bytes traced", std::to_string(total_bytes)});
  table.add_row({"last packet (s)",
                 support::fmt(static_cast<double>(last_ns) * 1e-9)});
  table.add_row(
      {"setup msgs/node (Fig 9)", support::fmt(setup_messages_per_node(data))});
  table.add_row({"spans", std::to_string(data.spans.size())});
  table.add_row({"deliveries", std::to_string(data.deliveries.size())});
  table.add_row({"audit events", std::to_string(data.audits.size())});
  table.add_row({"health samples", std::to_string(data.health.size())});
  table.add_row({"trace drops", std::to_string(data.trace_dropped)});
  for (const auto& [family, dropped] : data.dropped_by_family) {
    table.add_row({"trace drops (" + family + ")", std::to_string(dropped)});
  }
  if (data.skipped_lines > 0) {
    table.add_row({"skipped lines", std::to_string(data.skipped_lines)});
  }
  std::string out = table.render();

  // Lane balance: present only when the run used the sharded kernel
  // (the runner publishes kernel.* gauges after each sharded run).
  const JsonValue* gauges = data.counters.find("gauges");
  if (gauges != nullptr && gauges->number_at("kernel.lanes", 0.0) >= 2.0) {
    const auto lanes =
        static_cast<std::size_t>(gauges->number_at("kernel.lanes"));
    out += "\nlane balance (sharded kernel)\n";
    support::TextTable head({"metric", "value"});
    head.add_row({"lanes", std::to_string(lanes)});
    head.add_row({"windows", support::fmt(gauges->number_at("kernel.windows"), 0)});
    head.add_row(
        {"halo packets", support::fmt(gauges->number_at("kernel.halo_packets"), 0)});
    head.add_row(
        {"lookahead (us)", support::fmt(gauges->number_at("kernel.lookahead_us"), 1)});
    head.add_row(
        {"event skew", support::fmt(gauges->number_at("kernel.lane_skew"), 3)});
    out += head.render();
    support::TextTable per_lane(
        {"lane", "events", "halo out", "busy (ms)", "barrier wait (ms)"});
    for (std::size_t l = 0; l < lanes; ++l) {
      const std::string prefix = "kernel.lane" + std::to_string(l);
      per_lane.add_row(
          {std::to_string(l),
           support::fmt(gauges->number_at(prefix + ".events"), 0),
           support::fmt(gauges->number_at(prefix + ".halo_out"), 0),
           support::fmt(gauges->number_at(prefix + ".busy_ms"), 1),
           support::fmt(gauges->number_at(prefix + ".barrier_wait_ms"), 1)});
    }
    out += per_lane.render();
  }
  return out;
}

}  // namespace ldke::obs
