#include "crypto/hmac.hpp"

#include <algorithm>
#include <array>
#include <cstring>

#include "crypto/obs.hpp"

namespace ldke::crypto {

HmacMidstate HmacSha256::precompute(
    std::span<const std::uint8_t> key) noexcept {
  std::array<std::uint8_t, kSha256BlockBytes> block_key{};
  if (key.size() > kSha256BlockBytes) {
    const Sha256Digest digest = sha256(key);
    std::memcpy(block_key.data(), digest.data(), digest.size());
  } else {
    std::memcpy(block_key.data(), key.data(), key.size());
  }

  std::array<std::uint8_t, kSha256BlockBytes> pad_key{};
  for (std::size_t i = 0; i < kSha256BlockBytes; ++i) {
    pad_key[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x36);
  }
  Sha256 hash;
  hash.update(pad_key);
  HmacMidstate mid;
  mid.inner = hash.compressed_state();

  for (std::size_t i = 0; i < kSha256BlockBytes; ++i) {
    pad_key[i] = static_cast<std::uint8_t>(block_key[i] ^ 0x5c);
  }
  hash.reset();
  hash.update(pad_key);
  mid.outer = hash.compressed_state();

  support::secure_zero(block_key);
  support::secure_zero(pad_key);
  return mid;
}

HmacSha256::HmacSha256(std::span<const std::uint8_t> key) noexcept
    : HmacSha256(precompute(key)) {}

void HmacSha256::update(std::span<const std::uint8_t> data) noexcept {
  inner_.update(data);
}

Sha256Digest HmacSha256::finish() noexcept {
  const Sha256Digest inner_digest = inner_.finish();
  Sha256 outer = Sha256::resume(outer_mid_);
  outer.update(inner_digest);
  return outer.finish();
}

Sha256Digest hmac_sha256(std::span<const std::uint8_t> key,
                         std::span<const std::uint8_t> message) noexcept {
  HmacSha256 ctx{key};
  ctx.update(message);
  return ctx.finish();
}

namespace {

/// Messages beyond this size are tagged without the memo; every message
/// the protocol tags (a revocation's cid list, a join reply, a µTESLA
/// command) is far smaller.
constexpr std::size_t kLastMacMessageMax = 256;

/// The thread's last mac(), inputs and tag by copy.  A §IV-D revocation
/// floods one command that every node re-broadcasts once, so each node
/// verifies the same (chain element, cid list) once per forwarding
/// neighbour, and one delivery event asks it of every receiver in turn.
struct LastMac {
  bool valid = false;
  std::size_t message_len = 0;
  Key128 key{};
  std::array<std::uint8_t, kLastMacMessageMax> message{};
  MacTag tag{};
};
constinit thread_local LastMac t_last_mac;

}  // namespace

MacTag mac(const Key128& key, std::span<const std::uint8_t> message) noexcept {
  if (CryptoCounters* sink = crypto_counters_sink()) ++sink->macs;
  LastMac& last = t_last_mac;
  const bool memoizable = message.size() <= kLastMacMessageMax;
  if (memoizable && last.valid && last.message_len == message.size() &&
      last.key == key &&
      std::equal(message.begin(), message.end(), last.message.begin())) {
    return last.tag;
  }
  const Sha256Digest full = hmac_sha256(key.span(), message);
  MacTag tag;
  std::memcpy(tag.data(), full.data(), tag.size());
  if (memoizable) {
    last.valid = true;
    last.message_len = message.size();
    last.key = key;
    std::ranges::copy(message, last.message.begin());
    last.tag = tag;
  }
  return tag;
}

bool verify_mac(const Key128& key, std::span<const std::uint8_t> message,
                std::span<const std::uint8_t> tag) noexcept {
  const MacTag expected = mac(key, message);
  return support::constant_time_equal(expected, tag);
}

}  // namespace ldke::crypto
