#pragma once
/// \file hmac.hpp
/// RFC 2104 HMAC-SHA-256.  The protocol's MAC_K(.) operations use this
/// with tags truncated to kMacTagBytes (TinySec-style short tags keep the
/// over-the-air packets mote-sized; truncation of HMAC is standard).

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "crypto/key.hpp"
#include "crypto/sha256.hpp"

namespace ldke::crypto {

/// Length of the truncated MAC tag carried in packets.
inline constexpr std::size_t kMacTagBytes = 8;

using MacTag = std::array<std::uint8_t, kMacTagBytes>;

/// Precomputed per-key HMAC state: the key-dependent ipad and opad block
/// compressions are done exactly once; every message MACed under the same
/// key then resumes from these midstates, skipping two of the four
/// SHA-256 compressions a short-message HMAC costs.
struct HmacMidstate {
  Sha256Midstate inner;  ///< state after compressing (key ^ ipad)
  Sha256Midstate outer;  ///< state after compressing (key ^ opad)

  friend bool operator==(const HmacMidstate&, const HmacMidstate&) = default;
};

/// Incremental HMAC-SHA-256.
class HmacSha256 {
 public:
  explicit HmacSha256(std::span<const std::uint8_t> key) noexcept;

  /// Resumes from a per-key midstate (see precompute); costs two small
  /// copies instead of the key-setup compressions.
  explicit HmacSha256(const HmacMidstate& mid) noexcept
      : inner_(Sha256::resume(mid.inner)), outer_mid_(mid.outer) {}

  /// Runs the per-key setup once; the result can seed any number of
  /// HmacSha256 contexts for this key.
  [[nodiscard]] static HmacMidstate precompute(
      std::span<const std::uint8_t> key) noexcept;

  void update(std::span<const std::uint8_t> data) noexcept;
  [[nodiscard]] Sha256Digest finish() noexcept;

 private:
  Sha256 inner_;
  Sha256Midstate outer_mid_{};
};

/// One-shot full-width HMAC.
[[nodiscard]] Sha256Digest hmac_sha256(
    std::span<const std::uint8_t> key,
    std::span<const std::uint8_t> message) noexcept;

/// Protocol MAC: HMAC-SHA-256 truncated to kMacTagBytes.  The thread's
/// last tag is remembered: a call whose key and message equal it byte
/// for byte returns it without recomputing.  Every call counts one mac,
/// hit or miss (crypto/obs.hpp).
[[nodiscard]] MacTag mac(const Key128& key,
                         std::span<const std::uint8_t> message) noexcept;

/// Constant-time verification of a truncated tag.
[[nodiscard]] bool verify_mac(const Key128& key,
                              std::span<const std::uint8_t> message,
                              std::span<const std::uint8_t> tag) noexcept;

}  // namespace ldke::crypto
