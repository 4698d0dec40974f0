#pragma once
/// \file run_artifacts.hpp
/// Machine-readable run artifacts: RunSummary (one JSON object capturing
/// a trial's configuration, §V metrics, sim/channel/crypto/energy stats,
/// phase timeline and DATA latency percentiles) and the packet-level
/// JSONL trace, both written by tools/ldke_sim and consumed by
/// tools/ldke_trace / CI schema checks.  The JSON key names double as the
/// stable contract between EXPERIMENTS.md figures and the artifacts —
/// e.g. Fig 9 is summary["setup"]["setup_messages_per_node"].

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "core/runner.hpp"
#include "net/packet_trace.hpp"
#include "obs/json.hpp"
#include "obs/span.hpp"

namespace ldke::analysis {

/// Per-PacketKind traffic totals (kinds with zero packets are omitted).
struct KindTraffic {
  std::string kind;
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
};

struct RunSummary {
  int schema_version = 1;
  std::string tool;

  struct {
    std::size_t node_count = 0;
    double density = 0.0;
    double side_m = 0.0;
    std::uint64_t seed = 0;
  } config;

  /// §V metrics (Figs 6–9); valid after run_key_setup().
  core::SetupMetrics setup;

  struct {
    std::uint64_t events_executed = 0;
    std::uint64_t queue_high_water = 0;
    double wall_seconds = 0.0;
    double sim_time_s = 0.0;
  } sim;

  struct {
    std::uint64_t transmissions = 0;
    std::uint64_t deliveries = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t collisions = 0;
    std::uint64_t losses = 0;
    std::vector<KindTraffic> by_kind;
  } channel;

  /// Deployment-wide crypto totals (runner residual + every node).
  crypto::CryptoCounters crypto;

  struct {
    double total_j = 0.0;
    double tx_j = 0.0;
    double rx_j = 0.0;
  } energy;

  struct {
    std::uint64_t originated = 0;
    std::uint64_t delivered = 0;
    std::uint64_t unmatched = 0;
    double p50_ms = 0.0;
    double p90_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double max_ms = 0.0;
  } latency;

  std::vector<obs::TraceSpan> phases;

  /// MetricRegistry snapshot ({"counters":..,"gauges":..,"histograms":..}).
  obs::JsonValue counters;
};

/// Gathers everything the runner and its network expose right now.
[[nodiscard]] RunSummary collect_run_summary(core::ProtocolRunner& runner,
                                             std::string_view tool);

[[nodiscard]] obs::JsonValue to_json(const RunSummary& summary);

/// Serializes the summary as a single JSON document plus newline.
void write_run_summary(std::ostream& os, const RunSummary& summary);

/// Optional recorders and extra meta for write_trace_jsonl.  All members
/// default to absent.
struct TraceArtifacts {
  const net::PacketTrace* packets = nullptr;
  const obs::AuditSink* audit = nullptr;
  std::vector<obs::HealthSample> health;
  /// Extra string fields merged into the meta record (e.g. scenario name
  /// and trace digest), in insertion order.
  std::vector<std::pair<std::string, std::string>> meta_extras;
};

/// Writes the versioned JSONL trace for a trial: meta line, phase spans,
/// packet records, audit events, delivery samples, health samples,
/// counter snapshot, and one trace_drops line per record family ("pkt",
/// "audit") whose log evicted records.  Lane-sharded logs are merged in
/// canonical order, so while no log evicts (each shard evicts on its own)
/// the output is byte-identical at any lane count; the counters snapshot
/// is the one lane-count-dependent line, carrying kernel.* gauges.
void write_trace_jsonl(std::ostream& os, core::ProtocolRunner& runner,
                       std::string_view tool,
                       const TraceArtifacts& artifacts = {});

}  // namespace ldke::analysis
