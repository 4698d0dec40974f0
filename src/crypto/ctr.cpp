#include "crypto/ctr.hpp"

#include <algorithm>

namespace ldke::crypto {

void AesCtrContext::crypt(std::uint64_t nonce,
                          std::span<std::uint8_t> data) const noexcept {
  AesBlock counter_block{};
  // Big-endian nonce in bytes 0..7, block counter in bytes 8..15.
  for (int i = 0; i < 8; ++i) {
    counter_block[i] = static_cast<std::uint8_t>(nonce >> (56 - 8 * i));
  }

  std::uint64_t block_index = 0;
  std::size_t offset = 0;
  while (offset < data.size()) {
    for (int i = 0; i < 8; ++i) {
      counter_block[8 + i] =
          static_cast<std::uint8_t>(block_index >> (56 - 8 * i));
    }
    const AesBlock keystream = aes_.encrypt(counter_block);
    const std::size_t take =
        std::min<std::size_t>(kAesBlockBytes, data.size() - offset);
    for (std::size_t i = 0; i < take; ++i) data[offset + i] ^= keystream[i];
    offset += take;
    ++block_index;
  }
}

support::Bytes AesCtrContext::encrypt(
    std::uint64_t nonce, std::span<const std::uint8_t> plain) const {
  support::Bytes out(plain.begin(), plain.end());
  crypt(nonce, out);
  return out;
}

void ctr_crypt(const Key128& key, std::uint64_t nonce,
               std::span<std::uint8_t> data) noexcept {
  AesCtrContext{key}.crypt(nonce, data);
}

support::Bytes ctr_encrypt(const Key128& key, std::uint64_t nonce,
                           std::span<const std::uint8_t> plain) {
  support::Bytes out(plain.begin(), plain.end());
  ctr_crypt(key, nonce, out);
  return out;
}

}  // namespace ldke::crypto
