#include "crypto/authenc.hpp"

#include "crypto/seal_context.hpp"

namespace ldke::crypto {

// The free functions are thin one-shot wrappers over SealContext: they
// pay the full per-key setup (pair derivation, AES key schedule, HMAC
// midstates) on every call.  Hot paths use a SealContext from the
// per-thread context memo (SealContext(const Key128&), SealContext::reuse)
// instead and skip all of it.

support::Bytes seal(const KeyPair& keys, std::uint64_t nonce,
                    std::span<const std::uint8_t> plain,
                    std::span<const std::uint8_t> aad) {
  return SealContext{keys}.seal(nonce, plain, aad);
}

std::optional<support::Bytes> open(const KeyPair& keys, std::uint64_t nonce,
                                   std::span<const std::uint8_t> sealed,
                                   std::span<const std::uint8_t> aad) {
  return SealContext{keys}.open(nonce, sealed, aad);
}

support::Bytes seal_with(const Key128& key, std::uint64_t nonce,
                         std::span<const std::uint8_t> plain,
                         std::span<const std::uint8_t> aad) {
  return SealContext{key}.seal(nonce, plain, aad);
}

std::optional<support::Bytes> open_with(const Key128& key, std::uint64_t nonce,
                                        std::span<const std::uint8_t> sealed,
                                        std::span<const std::uint8_t> aad) {
  return SealContext{key}.open(nonce, sealed, aad);
}

}  // namespace ldke::crypto
