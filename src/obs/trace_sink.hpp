#pragma once
/// \file trace_sink.hpp
/// Versioned JSONL trace writer.  One JSON object per line; the first
/// line is a "meta" record carrying the schema version, run parameters
/// and tool name.  Everything ldke_trace consumes is written through
/// this sink, so the schema lives in exactly one place:
///
///   {"type":"meta","v":2,"tool":...,"nodes":N,"density":D,"seed":S,...}
///   {"type":"span","name":"key_setup","t0":0,"t1":6050000000,"depth":0}
///   {"type":"pkt","t":12345,"sender":7,"kind":"hello","bytes":91}
///   {"type":"audit","t":...,"kind":"refresh_applied","actor":7,
///    "subject":2,"arg":3}                      (v2; "subject" optional)
///   {"type":"delivery","src":42,"t_tx":...,"t_rx":...}
///   {"type":"health","t":...,"phase":"stress","active":N,...}    (v2)
///   {"type":"counters","snapshot":{"counters":{...},"gauges":{...},...}}
///   {"type":"trace_drops","family":"audit","seen":N,"recorded":M,
///    "dropped":K}                  (one per family that lost records)
///
/// All timestamps are simulated nanoseconds.  Unknown line types must be
/// skipped by readers (forward compatibility within a major version):
/// v2 only *adds* the audit/health families, so every v1 trace is a
/// valid v2 trace and v2 readers parse v1 files unchanged.

#include <cstdint>
#include <ostream>
#include <string_view>

#include "obs/audit.hpp"
#include "obs/delivery.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"

namespace ldke::obs {

/// Bumped when a reader of version N can no longer parse the stream.
/// v2: added the "audit" and "health" record families (additive).
inline constexpr int kTraceSchemaVersion = 2;

class TraceSink {
 public:
  explicit TraceSink(std::ostream& os) : os_(os) {}

  /// Writes the leading meta record; \p fields are merged after the
  /// mandatory type/v/tool members.
  void write_meta(std::string_view tool, JsonValue fields);

  void write_span(const TraceSpan& span);
  void write_packet(std::int64_t t_ns, std::uint32_t sender,
                    std::string_view kind, std::uint32_t bytes);
  void write_audit(const AuditEvent& event);
  void write_delivery(const DeliveryTracker::Sample& sample);
  void write_health(const HealthSample& sample);
  void write_counters(JsonValue snapshot);
  /// \p family names the record family that lost records: "pkt" or
  /// "audit".
  void write_trace_drops(std::string_view family, std::uint64_t seen,
                         std::uint64_t recorded, std::uint64_t dropped);

  [[nodiscard]] std::uint64_t lines_written() const noexcept {
    return lines_;
  }

 private:
  void emit(const JsonValue& line);

  std::ostream& os_;
  std::uint64_t lines_ = 0;
};

}  // namespace ldke::obs
