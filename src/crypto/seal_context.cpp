#include "crypto/seal_context.hpp"

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>

#include "crypto/key_memo.hpp"
#include "crypto/obs.hpp"

namespace ldke::crypto {

namespace {

// The memos identify a context by the state open() reads; a context holds
// nothing else, not even a copy of its key.
static_assert(sizeof(SealContext) ==
              sizeof(AesCtrContext) + sizeof(HmacMidstate));

/// Contexts by root key, per thread: the only store of a context built
/// from a key.  Every member and bordering node of a cluster uses its key,
/// and only the first use in the process pays for the pair derivation,
/// the AES schedule and the HMAC midstates.  512 contexts (about
/// 140 KiB): doubling them gains under one point of hit rate on the
/// 2k-100k node workloads.
using ContextMemo = detail::KeyMemo<SealContext, 256>;

/// The memo's context for \p key, computed on a miss.  With \p charge the
/// call counts the two prf calls of PrfContext::pair(), hit or miss;
/// without, it counts nothing.
const SealContext& memoized_context(const Key128& key, bool charge) noexcept {
  static thread_local const auto memo = std::make_unique<ContextMemo>();
  CryptoCounters* const sink = crypto_counters_sink();
  const SealContext* ctx = memo->find(key);
  if (ctx == nullptr) {
    set_crypto_counters_sink(nullptr);
    ctx = &memo->emplace(key, PrfContext{key}.pair());
    set_crypto_counters_sink(sink);
  }
  if (charge && sink != nullptr) sink->prf_calls += 2;
  return *ctx;
}

/// Inputs beyond these sizes are opened without the memo; every frame the
/// simulator sends is far smaller.
constexpr std::size_t kLastOpenSealedMax = 256;
constexpr std::size_t kLastOpenAadMax = 64;

/// The thread's last open, inputs and result by copy (payload buffers are
/// recycled, so no views).  One delivery event hands a frame to all its
/// receivers back to back, so each receiver after the first that holds
/// the same key asks exactly the question recorded here.
struct LastOpen {
  bool valid = false;
  bool ok = false;
  std::uint64_t nonce = 0;
  std::size_t sealed_len = 0;
  std::size_t aad_len = 0;
  std::array<std::uint8_t, kKeyBytes> aes_key{};
  HmacMidstate mac_mid{};
  std::array<std::uint8_t, kLastOpenSealedMax> sealed{};
  std::array<std::uint8_t, kLastOpenAadMax> aad{};
  std::array<std::uint8_t, kLastOpenSealedMax> plain{};
};
constinit thread_local LastOpen t_last_open;

bool same_bytes(std::span<const std::uint8_t> a, const std::uint8_t* b) {
  return std::equal(a.begin(), a.end(), b);
}

}  // namespace

SealContext::SealContext(const Key128& key) noexcept
    : SealContext(memoized_context(key, true)) {}

SealContext SealContext::reuse(const Key128& key) noexcept {
  return memoized_context(key, false);
}

MacTag SealContext::envelope_tag(std::uint64_t nonce,
                                 std::span<const std::uint8_t> cipher,
                                 std::span<const std::uint8_t> aad)
    const noexcept {
  HmacSha256 ctx{mac_mid_};
  std::uint8_t nonce_le[8];
  for (int i = 0; i < 8; ++i) {
    nonce_le[i] = static_cast<std::uint8_t>(nonce >> (8 * i));
  }
  // Length-prefix the AAD so (aad, ct) boundaries are unambiguous.
  std::uint8_t aad_len_le[4];
  const auto aad_len = static_cast<std::uint32_t>(aad.size());
  for (int i = 0; i < 4; ++i) {
    aad_len_le[i] = static_cast<std::uint8_t>(aad_len >> (8 * i));
  }
  ctx.update(aad_len_le);
  ctx.update(aad);
  ctx.update(nonce_le);
  ctx.update(cipher);
  const Sha256Digest full = ctx.finish();
  MacTag tag;
  std::memcpy(tag.data(), full.data(), tag.size());
  return tag;
}

support::Bytes SealContext::seal(std::uint64_t nonce,
                                 std::span<const std::uint8_t> plain,
                                 std::span<const std::uint8_t> aad) const {
  if (CryptoCounters* sink = crypto_counters_sink()) {
    ++sink->seals;
    sink->sealed_bytes += plain.size();
  }
  support::Bytes out = ctr_.encrypt(nonce, plain);
  const MacTag tag = envelope_tag(nonce, out, aad);
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

std::optional<support::Bytes> SealContext::open(
    std::uint64_t nonce, std::span<const std::uint8_t> sealed,
    std::span<const std::uint8_t> aad) const {
  CryptoCounters* sink = crypto_counters_sink();
  if (sink != nullptr) {
    ++sink->opens;
    sink->opened_bytes += sealed.size();
  }
  if (sealed.size() < kMacTagBytes) {
    if (sink != nullptr) ++sink->open_failures;
    return std::nullopt;
  }
  const auto cipher = sealed.first(sealed.size() - kMacTagBytes);
  LastOpen& last = t_last_open;
  const bool memoizable =
      sealed.size() <= kLastOpenSealedMax && aad.size() <= kLastOpenAadMax;
  if (memoizable && last.valid && last.nonce == nonce &&
      last.sealed_len == sealed.size() && last.aad_len == aad.size() &&
      same_bytes(sealed, last.sealed.data()) &&
      same_bytes(aad, last.aad.data()) &&
      same_bytes(ctr_.key_bytes(), last.aes_key.data()) &&
      last.mac_mid == mac_mid_) {
    if (!last.ok) {
      if (sink != nullptr) ++sink->open_failures;
      return std::nullopt;
    }
    return support::Bytes(last.plain.begin(),
                          last.plain.begin() + cipher.size());
  }

  const MacTag expected = envelope_tag(nonce, cipher, aad);
  std::optional<support::Bytes> plain;
  if (support::constant_time_equal(expected, sealed.last(kMacTagBytes))) {
    plain = ctr_.decrypt(nonce, cipher);
  } else if (sink != nullptr) {
    ++sink->open_failures;
  }
  if (memoizable) {
    last.valid = true;
    last.ok = plain.has_value();
    last.nonce = nonce;
    last.sealed_len = sealed.size();
    last.aad_len = aad.size();
    std::ranges::copy(ctr_.key_bytes(), last.aes_key.begin());
    last.mac_mid = mac_mid_;
    std::ranges::copy(sealed, last.sealed.begin());
    std::ranges::copy(aad, last.aad.begin());
    if (plain) std::ranges::copy(*plain, last.plain.begin());
  }
  return plain;
}

}  // namespace ldke::crypto
