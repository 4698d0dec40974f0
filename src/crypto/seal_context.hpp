#pragma once
/// \file seal_context.hpp
/// Cached per-key crypto contexts for the encrypt-then-MAC envelope of
/// authenc.hpp.  A SealContext owns everything that is derivable from a
/// key alone — the (Kencr, KMAC) pair, the expanded AES-CTR round keys
/// and the HMAC ipad/opad midstates — so sealing or opening a packet
/// costs only the per-message work.  TinySec-style link-layer stacks get
/// their throughput from exactly this kind of long-lived per-link cipher
/// state; re-deriving it per packet (what the free seal_with/open_with
/// wrappers do) is 3-4x slower for mote-sized payloads.
///
/// Wire format is byte-identical to seal/open in authenc.cpp — the free
/// functions delegate here, and tests/crypto/seal_context_test.cpp pins
/// the equivalence against an independent reference implementation.

#include <cstdint>
#include <optional>
#include <span>

#include "crypto/ctr.hpp"
#include "crypto/hmac.hpp"
#include "crypto/key.hpp"
#include "crypto/prf.hpp"
#include "support/hex.hpp"

namespace ldke::crypto {

/// Per-key seal/open context: cached KeyPair derivation + CTR schedule +
/// MAC midstates.  Cheap to copy (a few hundred bytes, no heap).
class SealContext {
 public:
  /// Derives (Kencr, KMAC) = (F(key,0), F(key,1)) and caches both
  /// contexts — the cached equivalent of seal_with/open_with.  Memoized
  /// per thread on the exact key: every holder of a cluster key after the
  /// first copies the context built for it, and still counts the two prf
  /// calls of the derivation (crypto/obs.hpp).  This is a holder's build:
  /// its first use of a key value.
  explicit SealContext(const Key128& key) noexcept;

  /// The same memo's context for \p key, counting nothing, even when a
  /// miss recomputes it: every use of a key value after the holder's
  /// build.  By value, so no reference into the memo outlives a later
  /// build.
  [[nodiscard]] static SealContext reuse(const Key128& key) noexcept;

  /// Caches contexts for an already-derived pair — the cached equivalent
  /// of seal/open.
  explicit SealContext(const KeyPair& keys) noexcept
      : ctr_(keys.encr), mac_mid_(HmacSha256::precompute(keys.mac.span())) {}

  /// Encrypts and authenticates \p plain.  Returns ciphertext||tag.
  [[nodiscard]] support::Bytes seal(std::uint64_t nonce,
                                    std::span<const std::uint8_t> plain,
                                    std::span<const std::uint8_t> aad = {}) const;

  /// Verifies and decrypts; std::nullopt on any authentication failure.
  /// The thread's last open is remembered: a call whose context state
  /// (AES key, HMAC midstates), nonce, sealed bytes and AAD all equal it
  /// byte for byte returns the remembered result, success or failure, and
  /// counts exactly as a computed open.  This is the shape of one
  /// broadcast opened by every neighbour that holds the cluster key.
  [[nodiscard]] std::optional<support::Bytes> open(
      std::uint64_t nonce, std::span<const std::uint8_t> sealed,
      std::span<const std::uint8_t> aad = {}) const;

 private:
  [[nodiscard]] MacTag envelope_tag(
      std::uint64_t nonce, std::span<const std::uint8_t> cipher,
      std::span<const std::uint8_t> aad) const noexcept;

  AesCtrContext ctr_;
  HmacMidstate mac_mid_;
};

}  // namespace ldke::crypto
