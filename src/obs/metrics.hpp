#pragma once
/// \file metrics.hpp
/// The trial's counter table.  Every simulator counter is listed once
/// below, in ascending name order; the list generates `obs::Counter` and
/// `kCounterNames`, and a registry is one array slot per counter, so an
/// increment is one add.  Gauges (the `kernel.*` lane figures) are a
/// small name -> double map beside it.

#include <array>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace ldke::obs {

/// X(enumerator, "name"), sorted by name (a static_assert below checks).
#define LDKE_OBS_COUNTERS(X)                                             \
  X(kBsCounterViolation, "bs.counter_violation")                         \
  X(kBsE2eAuthFail, "bs.e2e_auth_fail")                                  \
  X(kBsReadingAccepted, "bs.reading_accepted")                           \
  X(kChannelCollision, "channel.collision")                              \
  X(kChannelCsmaDefer, "channel.csma_defer")                             \
  X(kChannelCsmaDrop, "channel.csma_drop")                               \
  X(kChannelDelivered, "channel.delivered")                              \
  X(kChannelLost, "channel.lost")                                        \
  X(kChannelTx, "channel.tx")                                            \
  X(kChannelTxExternal, "channel.tx_external")                           \
  X(kDataFusionDropped, "data.fusion_dropped")                           \
  X(kDataHopTx, "data.hop_tx")                                           \
  X(kDataMaliciouslyDropped, "data.maliciously_dropped")                 \
  X(kDataMisdelivered, "data.misdelivered")                              \
  X(kDataNoRoute, "data.no_route")                                       \
  X(kDataOriginated, "data.originated")                                  \
  X(kDataPeekOk, "data.peek_ok")                                         \
  X(kDiffusionDelivered, "diffusion.delivered")                          \
  X(kDiffusionExploratoryForwarded, "diffusion.exploratory_forwarded")   \
  X(kDiffusionExploratorySent, "diffusion.exploratory_sent")             \
  X(kDiffusionInterestForwarded, "diffusion.interest_forwarded")         \
  X(kDiffusionInterestSent, "diffusion.interest_sent")                   \
  X(kDiffusionMalformed, "diffusion.malformed")                          \
  X(kDiffusionPathForwarded, "diffusion.path_forwarded")                 \
  X(kDiffusionPathSent, "diffusion.path_sent")                           \
  X(kDiffusionReinforceSent, "diffusion.reinforce_sent")                 \
  X(kDiffusionReinforced, "diffusion.reinforced")                        \
  X(kEnvelopeAuthFail, "envelope.auth_fail")                             \
  X(kEnvelopeCidMismatch, "envelope.cid_mismatch")                       \
  X(kEnvelopeMalformed, "envelope.malformed")                            \
  X(kEnvelopeNoKey, "envelope.no_key")                                   \
  X(kEnvelopeReplay, "envelope.replay")                                  \
  X(kEnvelopeStale, "envelope.stale")                                    \
  X(kJoinCommitted, "join.committed")                                    \
  X(kJoinHelloSent, "join.hello_sent")                                   \
  X(kJoinNoCluster, "join.no_cluster")                                   \
  X(kJoinReplyRejected, "join.reply_rejected")                           \
  X(kJoinReplySent, "join.reply_sent")                                   \
  X(kJoinReplyVerified, "join.reply_verified")                           \
  X(kMuteslaBuffered, "mutesla.buffered")                                \
  X(kMuteslaCommandSent, "mutesla.command_sent")                         \
  X(kMuteslaDisclosed, "mutesla.disclosed")                              \
  X(kMuteslaKeyVerified, "mutesla.key_verified")                         \
  X(kMuteslaMalformed, "mutesla.malformed")                              \
  X(kPacketUnknownKind, "packet.unknown_kind")                           \
  X(kPktDroppedGone, "pkt.dropped_gone")                                 \
  X(kPktDroppedPartition, "pkt.dropped_partition")                       \
  X(kPktTxGated, "pkt.tx_gated")                                         \
  X(kReclusterHelloSent, "recluster.hello_sent")                         \
  X(kReclusterJoined, "recluster.joined")                                \
  X(kReclusterKeptOldKeys, "recluster.kept_old_keys")                    \
  X(kReclusterLinkSent, "recluster.link_sent")                           \
  X(kReclusterMalformed, "recluster.malformed")                          \
  X(kReclusterNeighborKeyStored, "recluster.neighbor_key_stored")        \
  X(kReclusterSwapped, "recluster.swapped")                              \
  X(kRefreshApplied, "refresh.applied")                                  \
  X(kRefreshInitiated, "refresh.initiated")                              \
  X(kRefreshMalformed, "refresh.malformed")                              \
  X(kRefreshReannounced, "refresh.reannounced")                          \
  X(kRefreshReplay, "refresh.replay")                                    \
  X(kRevokeBadChain, "revoke.bad_chain")                                 \
  X(kRevokeBadTag, "revoke.bad_tag")                                     \
  X(kRevokeDuplicate, "revoke.duplicate")                                \
  X(kRevokeEvicted, "revoke.evicted")                                    \
  X(kRevokeForwarded, "revoke.forwarded")                                \
  X(kRevokeIssued, "revoke.issued")                                      \
  X(kRevokeKeyDeleted, "revoke.key_deleted")                             \
  X(kRevokeMalformed, "revoke.malformed")                                \
  X(kRoutingBeaconTx, "routing.beacon_tx")                               \
  X(kSetupHelloAuthFail, "setup.hello_auth_fail")                        \
  X(kSetupHelloMalformed, "setup.hello_malformed")                       \
  X(kSetupHelloSent, "setup.hello_sent")                                 \
  X(kSetupJoined, "setup.joined")                                        \
  X(kSetupLinkAuthFail, "setup.link_auth_fail")                          \
  X(kSetupLinkMalformed, "setup.link_malformed")                         \
  X(kSetupLinkSent, "setup.link_sent")                                   \
  X(kSetupNeighborKeyStored, "setup.neighbor_key_stored")

enum class Counter : std::size_t {
#define LDKE_OBS_COUNTER_ID(id, name) id,
  LDKE_OBS_COUNTERS(LDKE_OBS_COUNTER_ID)
#undef LDKE_OBS_COUNTER_ID
};

inline constexpr std::array kCounterNames = {
#define LDKE_OBS_COUNTER_NAME(id, name) std::string_view{name},
    LDKE_OBS_COUNTERS(LDKE_OBS_COUNTER_NAME)
#undef LDKE_OBS_COUNTER_NAME
};

inline constexpr std::size_t kCounterCount = kCounterNames.size();

static_assert(
    [] {
      for (std::size_t i = 1; i < kCounterCount; ++i) {
        if (!(kCounterNames[i - 1] < kCounterNames[i])) return false;
      }
      return true;
    }(),
    "LDKE_OBS_COUNTERS must list each name once, in ascending order");

class MetricRegistry {
 public:
  void increment(Counter counter, std::uint64_t by = 1) noexcept {
    counts_[static_cast<std::size_t>(counter)] += by;
  }

  [[nodiscard]] std::uint64_t value(Counter counter) const noexcept {
    return counts_[static_cast<std::size_t>(counter)];
  }

  /// The counter listed as \p name; throws std::out_of_range for a name
  /// the table does not list, so a misspelt read fails instead of
  /// reading 0.
  [[nodiscard]] std::uint64_t value(std::string_view name) const;

  /// Every counter by name, zeros included.
  [[nodiscard]] std::map<std::string, std::uint64_t, std::less<>> all() const;

  /// Last-written double under \p name (lane-balance figures).
  void set_gauge(std::string_view name, double value);

  /// Adds \p other's counters into this registry and zeroes \p other, so
  /// a second fold adds nothing.  Used to fold per-lane registries.
  void merge_from(MetricRegistry& other) noexcept;

  /// {"counters":{..},"gauges":{..},"histograms":{}}: the non-zero
  /// counters in name order, then the non-zero gauges.  The empty
  /// histogram family keeps the snapshot schema of earlier artifacts.
  [[nodiscard]] JsonValue snapshot_json() const;

 private:
  std::array<std::uint64_t, kCounterCount> counts_{};
  std::map<std::string, double, std::less<>> gauges_;
};

}  // namespace ldke::obs
