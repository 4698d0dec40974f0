#pragma once
/// \file prf.hpp
/// The paper's secure pseudo-random function F, realized as HMAC-SHA-256
/// truncated to 128 bits.  Uses:
///   - key derivation:          Kencr = F(Ki, 0), KMAC = F(Ki, 1)  (§IV-C)
///   - cluster-key generation:  Kci   = F(KMC, i)                  (§IV-E)
///   - hash-chain step:         K_{l-1} = F(K_l)                   (§IV-D)
///   - hash key refresh:        Kc <- F(Kc)                        (§IV-C)

#include <cstdint>
#include <span>

#include "crypto/hmac.hpp"
#include "crypto/key.hpp"

namespace ldke::crypto {

/// F(K, data): derives a 128-bit key from arbitrary input bytes.
[[nodiscard]] Key128 prf(const Key128& key,
                         std::span<const std::uint8_t> data) noexcept;

/// F(K, i): derives a key from a 64-bit label (little-endian encoding).
[[nodiscard]] Key128 prf_u64(const Key128& key, std::uint64_t label) noexcept;

/// One-way function F(K) used by hash chains and key refresh (fixed
/// "chain" domain-separation label).  Memoized per thread on the exact
/// input key, so the holders of one cluster key after the first copy the
/// result; every call still counts one prf call (crypto/obs.hpp).
[[nodiscard]] Key128 one_way(const Key128& key) noexcept;

/// In-place variant for chain walks: key <- F(key).
void one_way_inplace(Key128& key) noexcept;

/// Derived key pair for independent encryption / authentication
/// operations, as the paper recommends ("use different keys for different
/// cryptographic operations").
struct KeyPair {
  Key128 encr;  ///< Kencr = F(K, 0)
  Key128 mac;   ///< KMAC  = F(K, 1)
};

[[nodiscard]] KeyPair derive_pair(const Key128& key) noexcept;

/// Cached-key PRF: precomputes the HMAC midstate for one key, so repeated
/// F(K, .) evaluations under the same K (per-node key reconstruction at
/// the base station, Kci = F(KMC, i) during provisioning, derive_pair)
/// skip the per-key block compressions.  Output is byte-identical to the
/// free functions above.
class PrfContext {
 public:
  explicit PrfContext(const Key128& key) noexcept
      : mid_(HmacSha256::precompute(key.span())) {}

  [[nodiscard]] Key128 operator()(
      std::span<const std::uint8_t> data) const noexcept;
  [[nodiscard]] Key128 u64(std::uint64_t label) const noexcept;
  [[nodiscard]] KeyPair pair() const noexcept { return {u64(0), u64(1)}; }

 private:
  HmacMidstate mid_;
};

}  // namespace ldke::crypto
