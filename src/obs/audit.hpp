#pragma once
/// \file audit.hpp
/// Security-audit event stream: a typed record of *why* the key graph
/// changed.  Protocol code (SensorNode, BaseStation, DataPlaneEngine,
/// ScenarioEngine) emits AuditEvents through an optional AuditSink hung
/// off the Network; with no sink attached the emission site is a single
/// null-check.  The sink is the shared record log (record_log.hpp):
/// lane-sharded, bounded, and merged into one canonical stream ordered
/// by (sim time, actor).
///
/// HealthSample is the companion gauge record: a point-in-time probe of
/// protocol health (secured-link fraction, key-graph connectivity,
/// windowed delivery latency, refresh-epoch skew) sampled per scenario
/// phase.  Both families serialize into the JSONL trace as schema-v2
/// records ("audit" / "health", see trace_sink.hpp).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "obs/record_log.hpp"

namespace ldke::obs {

enum class AuditKind : std::uint8_t {
  kKeyEstablished,   // head minted its cluster key (actor = head)
  kMemberJoined,     // member adopted a head's key (subject = head)
  kRefreshRound,     // a global §IV-C refresh round kicked off (arg = round)
  kRefreshApplied,   // node advanced its hash epoch (subject = cid, arg = epoch)
  kRefreshReplay,    // stale REFRESH rejected (subject = cid, arg = epoch)
  kEvictionIssued,   // base station revoked a cluster (subject = victim cid)
  kEvicted,          // node saw its own cluster revoked and wiped its keys
  kJoinStarted,      // §IV-E JOIN_HELLO sent
  kJoinAdmitted,     // join committed (subject = cid, arg = epoch)
  kJoinRejected,     // join reply failed auth / epoch cap (subject = cid)
  kNodeLeft,         // scenario churn: graceful leave
  kNodeFailed,       // scenario churn: crash-stop
  kSleep,            // duty cycle: radio down
  kWake,             // duty cycle: radio up (arg = hash epochs caught up)
  kPartition,        // scripted partition wall raised (arg = x position, mm)
  kHeal,             // partition wall removed
  kReplayRejected,   // envelope nonce <= last seen (subject = sender, arg = nonce)
  kNonceWrapAbort,   // envelope counter exhausted; node halts before reuse
  kNeighborKeyStored,   // node stored a neighboring cluster's key (subject = cid)
  kNeighborKeyDropped,  // node dropped a neighboring cluster's key (subject = cid)
};

inline constexpr std::size_t kAuditKindCount =
    static_cast<std::size_t>(AuditKind::kNeighborKeyDropped) + 1;

/// Stable snake_case name used on the wire ("refresh_applied", ...).
[[nodiscard]] std::string_view audit_kind_name(AuditKind kind) noexcept;
[[nodiscard]] std::optional<AuditKind> audit_kind_from_name(
    std::string_view name) noexcept;

/// Sentinel for events with no counterpart node/cluster.
inline constexpr std::uint32_t kAuditNoSubject = 0xffffffffu;

struct AuditEvent {
  std::int64_t t_ns = 0;
  std::uint32_t actor = 0;
  std::uint32_t subject = kAuditNoSubject;
  std::uint64_t arg = 0;
  AuditKind kind = AuditKind::kKeyEstablished;
  friend bool operator==(const AuditEvent&, const AuditEvent&) = default;
};

/// Point-in-time protocol-health gauges, sampled at a phase boundary.
/// All derivable quantities are precomputed so the trace line is
/// self-contained: a reader reproduces the health table with no access
/// to the simulation.
struct HealthSample {
  std::int64_t t_ns = 0;
  std::string phase;
  std::uint32_t active_nodes = 0;    // alive, awake, unpartitioned-capable
  std::uint32_t live_links = 0;      // in-range pairs among active nodes
  std::uint32_t secured_links = 0;   // live links covered by a shared key
  double secured_link_fraction = 0.0;
  std::uint32_t key_components = 0;  // key-graph components among active nodes
  std::uint32_t largest_component = 0;
  std::uint64_t delivered = 0;       // window_stats over the phase window
  double latency_p50_ms = 0.0;
  double latency_p95_ms = 0.0;
  std::uint64_t epoch_skew = 0;      // max - min hash epoch over keyed actives
  double epoch_mean = 0.0;
};

/// The audit stream's recorder: the shared bounded, lane-sharded record
/// log, merged by (t_ns, actor).
using AuditSink = RecordLog<AuditEvent, &AuditEvent::t_ns, &AuditEvent::actor>;

}  // namespace ldke::obs
