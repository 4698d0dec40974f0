#pragma once
/// \file trace_reader.hpp
/// Offline side of the trace schema: loads a JSONL stream written by
/// TraceSink and derives the reports the ldke_trace CLI prints — phase
/// timelines with per-window traffic, per-kind tables, top talkers and
/// end-to-end latency percentiles.  Pure string/number domain (packet
/// kinds are the names the sink wrote), so it needs nothing above
/// support/ and is equally usable from tests.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "obs/audit.hpp"
#include "obs/delivery.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"

namespace ldke::obs {

struct TracePacket {
  std::int64_t t_ns = 0;
  std::uint32_t sender = 0;
  std::string kind;
  std::uint32_t bytes = 0;
};

/// One v2 "audit" record.  The kind stays a string so a v2 reader also
/// carries through kinds minted by future writers.
struct TraceAudit {
  std::int64_t t_ns = 0;
  std::string kind;
  std::uint32_t actor = 0;
  std::uint32_t subject = kAuditNoSubject;
  std::uint64_t arg = 0;
};

struct TraceData {
  int version = 0;
  JsonValue meta;  ///< the full meta record (tool, nodes, density, ...)
  std::vector<TraceSpan> spans;
  std::vector<TracePacket> packets;
  std::vector<TraceAudit> audits;    ///< v2; empty on v1 traces
  std::vector<HealthSample> health;  ///< v2; empty on v1 traces
  std::vector<DeliveryTracker::Sample> deliveries;
  JsonValue counters;  ///< last counters snapshot (null if none)
  std::uint64_t trace_dropped = 0;   ///< records evicted, all families
  /// Records evicted per family ("pkt", "audit"); only families with a
  /// trace_drops record appear.
  std::map<std::string, std::uint64_t> dropped_by_family;
  std::uint64_t skipped_lines = 0;   ///< unparseable or unknown-type lines

  [[nodiscard]] std::int64_t node_count() const noexcept {
    return meta.int_at("nodes");
  }
};

/// Loads a whole JSONL stream.  Returns nullopt only when the stream has
/// no valid meta record or a newer major schema version; individually
/// malformed lines are counted in skipped_lines instead.
[[nodiscard]] std::optional<TraceData> load_trace(std::istream& in);

// ---- derived reports ------------------------------------------------------

struct PhaseRow {
  std::string name;
  std::uint32_t depth = 0;
  double start_s = 0.0;
  double end_s = 0.0;       ///< < 0 when the span never closed
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

struct KindRow {
  std::string kind;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

struct TalkerRow {
  std::uint32_t sender = 0;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

struct LatencyReport {
  std::uint64_t count = 0;
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double max_ms = 0.0;
};

/// Packet rate over one named span window.
struct RateReport {
  std::string window;       ///< span name the rate was computed over
  double window_s = 0.0;    ///< window duration
  std::uint64_t packets = 0;
  double pkts_per_s = 0.0;
};

/// Packets/bytes per span window (a packet counts toward every span whose
/// window contains it — parents therefore include their children).
[[nodiscard]] std::vector<PhaseRow> phase_rows(const TraceData& data);

/// Whole-run traffic per packet kind, sorted by bytes descending.
[[nodiscard]] std::vector<KindRow> kind_rows(const TraceData& data);

/// Traffic per kind within one named phase window (first span with that
/// name); empty when the phase is absent.
[[nodiscard]] std::vector<KindRow> kind_rows_in_phase(const TraceData& data,
                                                      std::string_view phase);

/// Top \p n senders by bytes.
[[nodiscard]] std::vector<TalkerRow> top_talkers(const TraceData& data,
                                                 std::size_t n);

[[nodiscard]] LatencyReport latency_report(const TraceData& data);

/// Latency percentiles restricted to deliveries received inside the
/// first span named \p phase (count == 0 when absent or empty) — the
/// steady-state DATA view when \p phase is "steady_state".
[[nodiscard]] LatencyReport latency_report_in_phase(const TraceData& data,
                                                    std::string_view phase);

/// Sustained packets/sec over the steady-state window: the first closed
/// "steady_state" span, falling back to "run".  nullopt when neither
/// exists or the window is empty.
[[nodiscard]] std::optional<RateReport> steady_rate(const TraceData& data);

/// Setup messages per node, the paper's Fig 9 quantity, recomputed from
/// the trace alone: (hello + link_advert packets) / nodes.  0 when the
/// meta record carries no node count.
[[nodiscard]] double setup_messages_per_node(const TraceData& data);

/// Per-kind audit census: count plus first/last occurrence, in first-seen
/// order (which is chronological, since the writer emits a sorted stream).
struct AuditKindRow {
  std::string kind;
  std::uint64_t count = 0;
  double first_s = 0.0;
  double last_s = 0.0;
};
[[nodiscard]] std::vector<AuditKindRow> audit_kind_rows(const TraceData& data);

/// One eviction's re-key convergence: sim time the base station issued
/// the revocation, the victim cluster, and the delay until the next
/// refresh epoch landed on any surviving node (converged == false when
/// the trace ends first).
struct ConvergenceRow {
  double evict_s = 0.0;
  std::uint32_t victim_cid = kAuditNoSubject;
  double converge_ms = 0.0;
  bool converged = false;
};
[[nodiscard]] std::vector<ConvergenceRow> eviction_convergence(
    const TraceData& data);

// ---- rendered reports (terminal tables) -----------------------------------

[[nodiscard]] std::string render_phases(const TraceData& data);
[[nodiscard]] std::string render_traffic(const TraceData& data);
[[nodiscard]] std::string render_talkers(const TraceData& data,
                                         std::size_t n = 10);
[[nodiscard]] std::string render_latency(const TraceData& data);
[[nodiscard]] std::string render_audit(const TraceData& data);
[[nodiscard]] std::string render_health(const TraceData& data);
[[nodiscard]] std::string render_summary(const TraceData& data);

}  // namespace ldke::obs
