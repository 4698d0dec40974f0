#pragma once
/// \file ctr.hpp
/// AES-128 counter-mode keystream encryption.  The protocol's E_K(.)
/// operations use CTR with an explicit 64-bit nonce + 64-bit block
/// counter, matching the paper's shared-counter construction for semantic
/// security (§IV-C Step 1).

#include <cstdint>
#include <span>

#include "crypto/aes128.hpp"
#include "crypto/key.hpp"
#include "support/hex.hpp"

namespace ldke::crypto {

/// Cached AES-CTR context: owns the expanded AES-128 round keys and
/// encrypts/decrypts any number of messages without re-running the key
/// schedule (the schedule costs about two block encryptions — see
/// BM_Aes128KeySchedule vs BM_Aes128Block).
class AesCtrContext {
 public:
  explicit AesCtrContext(const Key128& key) noexcept : aes_(key) {}

  /// XORs the keystream for \p nonce into \p data in place.  Encryption
  /// and decryption are the same operation.
  void crypt(std::uint64_t nonce, std::span<std::uint8_t> data) const noexcept;

  /// Out-of-place conveniences.
  [[nodiscard]] support::Bytes encrypt(
      std::uint64_t nonce, std::span<const std::uint8_t> plain) const;
  [[nodiscard]] support::Bytes decrypt(
      std::uint64_t nonce, std::span<const std::uint8_t> cipher) const {
    return encrypt(nonce, cipher);
  }

  /// The AES key this context encrypts under.
  [[nodiscard]] std::span<const std::uint8_t, kKeyBytes> key_bytes()
      const noexcept {
    return aes_.key_bytes();
  }

 private:
  Aes128 aes_;
};

/// XORs the AES-CTR keystream for (key, nonce) into \p data in place.
/// Encryption and decryption are the same operation.  One-shot: re-runs
/// the key schedule every call; hold an AesCtrContext on hot paths.
void ctr_crypt(const Key128& key, std::uint64_t nonce,
               std::span<std::uint8_t> data) noexcept;

/// Out-of-place convenience.
[[nodiscard]] support::Bytes ctr_encrypt(const Key128& key, std::uint64_t nonce,
                                         std::span<const std::uint8_t> plain);

[[nodiscard]] inline support::Bytes ctr_decrypt(
    const Key128& key, std::uint64_t nonce,
    std::span<const std::uint8_t> cipher) {
  return ctr_encrypt(key, nonce, cipher);
}

}  // namespace ldke::crypto
