#pragma once
/// \file aes128.hpp
/// FIPS 197 AES-128 block encryption (encrypt direction only — CTR mode
/// needs nothing else).  Verified against the FIPS 197 appendix and NIST
/// ECB vectors in tests/crypto/aes128_test.cpp.

#include <array>
#include <cstdint>
#include <span>

#include "crypto/key.hpp"

namespace ldke::crypto {

inline constexpr std::size_t kAesBlockBytes = 16;

using AesBlock = std::array<std::uint8_t, kAesBlockBytes>;

/// Expanded-key AES-128 encryptor.
class Aes128 {
 public:
  explicit Aes128(const Key128& key) noexcept;

  /// Encrypts one 16-byte block in place.
  void encrypt_block(std::span<std::uint8_t, kAesBlockBytes> block) const noexcept;

  /// Encrypts \p in into \p out (may alias).
  [[nodiscard]] AesBlock encrypt(const AesBlock& in) const noexcept;

  /// The cipher key, which is round key 0 and fixes all the others.
  [[nodiscard]] std::span<const std::uint8_t, kKeyBytes> key_bytes()
      const noexcept {
    return std::span(round_keys_).first<kKeyBytes>();
  }

 private:
  // 11 round keys of 16 bytes each.
  std::array<std::uint8_t, 176> round_keys_{};
};

}  // namespace ldke::crypto
