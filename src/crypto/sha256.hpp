#pragma once
/// \file sha256.hpp
/// FIPS 180-4 SHA-256, implemented from scratch and verified against the
/// NIST test vectors in tests/crypto/sha256_test.cpp.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "support/hex.hpp"

namespace ldke::crypto {

inline constexpr std::size_t kSha256DigestBytes = 32;
inline constexpr std::size_t kSha256BlockBytes = 64;

using Sha256Digest = std::array<std::uint8_t, kSha256DigestBytes>;

/// Compression state captured at a 64-byte block boundary.  Lets callers
/// (HMAC in particular) pay for a fixed prefix's block compressions once
/// per key and replay them per message at the cost of a small copy.
struct Sha256Midstate {
  std::array<std::uint32_t, 8> state{};
  std::uint64_t total_bytes = 0;

  friend bool operator==(const Sha256Midstate&, const Sha256Midstate&) = default;
};

/// Incremental SHA-256 context.
class Sha256 {
 public:
  Sha256() noexcept { reset(); }

  void reset() noexcept;
  void update(std::span<const std::uint8_t> data) noexcept;
  /// Finalizes and returns the digest; the context must be reset() before
  /// reuse.
  [[nodiscard]] Sha256Digest finish() noexcept;

  /// Captures the compression state.  Only valid at a block boundary:
  /// the bytes fed so far must be a multiple of kSha256BlockBytes.
  [[nodiscard]] Sha256Midstate compressed_state() const noexcept;

  /// Rebuilds a context positioned exactly where \p mid was captured.
  [[nodiscard]] static Sha256 resume(const Sha256Midstate& mid) noexcept;

 private:
  void process_block(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, kSha256BlockBytes> buffer_{};
  std::uint64_t total_bytes_ = 0;
  std::size_t buffered_ = 0;
};

/// One-shot convenience.
[[nodiscard]] Sha256Digest sha256(std::span<const std::uint8_t> data) noexcept;

}  // namespace ldke::crypto
