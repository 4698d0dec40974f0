#include "obs/audit.hpp"

#include <array>

namespace ldke::obs {

namespace {

constexpr std::array<std::string_view, kAuditKindCount> kKindNames = {
    "key_established", "member_joined",  "refresh_round",  "refresh_applied",
    "refresh_replay",  "eviction_issued", "evicted",        "join_started",
    "join_admitted",   "join_rejected",  "node_left",      "node_failed",
    "sleep",           "wake",           "partition",      "heal",
    "replay_rejected", "nonce_wrap_abort",
    "neighbor_key_stored", "neighbor_key_dropped",
};

}  // namespace

std::string_view audit_kind_name(AuditKind kind) noexcept {
  const auto index = static_cast<std::size_t>(kind);
  if (index >= kKindNames.size()) return "unknown";
  return kKindNames[index];
}

std::optional<AuditKind> audit_kind_from_name(std::string_view name) noexcept {
  for (std::size_t i = 0; i < kKindNames.size(); ++i) {
    if (kKindNames[i] == name) return static_cast<AuditKind>(i);
  }
  return std::nullopt;
}

}  // namespace ldke::obs
