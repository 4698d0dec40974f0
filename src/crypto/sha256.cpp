#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#include "crypto/cpu_features.hpp"

#if defined(LDKE_CRYPTO_X86)
#include <immintrin.h>
#endif

namespace ldke::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::uint32_t rotr(std::uint32_t x, int n) noexcept {
  return std::rotr(x, n);
}

constexpr std::uint32_t big_sigma0(std::uint32_t x) noexcept {
  return rotr(x, 2) ^ rotr(x, 13) ^ rotr(x, 22);
}
constexpr std::uint32_t big_sigma1(std::uint32_t x) noexcept {
  return rotr(x, 6) ^ rotr(x, 11) ^ rotr(x, 25);
}
constexpr std::uint32_t small_sigma0(std::uint32_t x) noexcept {
  return rotr(x, 7) ^ rotr(x, 18) ^ (x >> 3);
}
constexpr std::uint32_t small_sigma1(std::uint32_t x) noexcept {
  return rotr(x, 17) ^ rotr(x, 19) ^ (x >> 10);
}
constexpr std::uint32_t ch(std::uint32_t x, std::uint32_t y,
                           std::uint32_t z) noexcept {
  return (x & y) ^ (~x & z);
}
constexpr std::uint32_t maj(std::uint32_t x, std::uint32_t y,
                            std::uint32_t z) noexcept {
  return (x & y) ^ (x & z) ^ (y & z);
}

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

#if defined(LDKE_CRYPTO_X86)
// SHA-NI path: one FIPS 180-4 compression over \p block, bit-identical
// to the portable loop below.  The sha256rnds2 instruction works on the
// state split into (ABEF, CDGH) lane pairs; the prologue/epilogue
// shuffles translate to and from the linear a..h layout of state_.
__attribute__((target("sha,ssse3,sse4.1"))) void process_block_shani(
    std::uint32_t* state, const std::uint8_t* block) noexcept {
  const __m128i kByteSwap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);

  __m128i tmp = _mm_loadu_si128(reinterpret_cast<const __m128i*>(state));
  __m128i state1 =
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4));
  tmp = _mm_shuffle_epi32(tmp, 0xB1);        // CDAB
  state1 = _mm_shuffle_epi32(state1, 0x1B);  // EFGH
  __m128i state0 = _mm_alignr_epi8(tmp, state1, 8);    // ABEF
  state1 = _mm_blend_epi16(state1, tmp, 0xF0);         // CDGH

  const __m128i abef_save = state0;
  const __m128i cdgh_save = state1;
  const auto* p = reinterpret_cast<const __m128i*>(block);
  __m128i msg, tmsg;

  // Rounds 0-3.
  __m128i msg0 = _mm_shuffle_epi8(_mm_loadu_si128(p + 0), kByteSwap);
  msg = _mm_add_epi32(
      msg0, _mm_set_epi64x(0xE9B5DBA5B5C0FBCFLL, 0x71374491428A2F98LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  // Rounds 4-7.
  __m128i msg1 = _mm_shuffle_epi8(_mm_loadu_si128(p + 1), kByteSwap);
  msg = _mm_add_epi32(
      msg1, _mm_set_epi64x(0xAB1C5ED5923F82A4LL, 0x59F111F13956C25BLL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg0 = _mm_sha256msg1_epu32(msg0, msg1);

  // Rounds 8-11.
  __m128i msg2 = _mm_shuffle_epi8(_mm_loadu_si128(p + 2), kByteSwap);
  msg = _mm_add_epi32(
      msg2, _mm_set_epi64x(0x550C7DC3243185BELL, 0x12835B01D807AA98LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg1 = _mm_sha256msg1_epu32(msg1, msg2);

  // Rounds 12-15.
  __m128i msg3 = _mm_shuffle_epi8(_mm_loadu_si128(p + 3), kByteSwap);
  msg = _mm_add_epi32(
      msg3, _mm_set_epi64x(0xC19BF1749BDC06A7LL, 0x80DEB1FE72BE5D74LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmsg = _mm_alignr_epi8(msg3, msg2, 4);
  msg0 = _mm_add_epi32(msg0, tmsg);
  msg0 = _mm_sha256msg2_epu32(msg0, msg3);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg2 = _mm_sha256msg1_epu32(msg2, msg3);

  // Rounds 16-47: the schedule vectors msg0..msg3 rotate through the
  // msg1/msg2 recurrence, four rounds per group.
  // Rounds 16-19.
  msg = _mm_add_epi32(
      msg0, _mm_set_epi64x(0x240CA1CC0FC19DC6LL, 0xEFBE4786E49B69C1LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmsg = _mm_alignr_epi8(msg0, msg3, 4);
  msg1 = _mm_add_epi32(msg1, tmsg);
  msg1 = _mm_sha256msg2_epu32(msg1, msg0);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg3 = _mm_sha256msg1_epu32(msg3, msg0);

  // Rounds 20-23.
  msg = _mm_add_epi32(
      msg1, _mm_set_epi64x(0x76F988DA5CB0A9DCLL, 0x4A7484AA2DE92C6FLL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmsg = _mm_alignr_epi8(msg1, msg0, 4);
  msg2 = _mm_add_epi32(msg2, tmsg);
  msg2 = _mm_sha256msg2_epu32(msg2, msg1);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg0 = _mm_sha256msg1_epu32(msg0, msg1);

  // Rounds 24-27.
  msg = _mm_add_epi32(
      msg2, _mm_set_epi64x(0xBF597FC7B00327C8LL, 0xA831C66D983E5152LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmsg = _mm_alignr_epi8(msg2, msg1, 4);
  msg3 = _mm_add_epi32(msg3, tmsg);
  msg3 = _mm_sha256msg2_epu32(msg3, msg2);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg1 = _mm_sha256msg1_epu32(msg1, msg2);

  // Rounds 28-31.
  msg = _mm_add_epi32(
      msg3, _mm_set_epi64x(0x1429296706CA6351LL, 0xD5A79147C6E00BF3LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmsg = _mm_alignr_epi8(msg3, msg2, 4);
  msg0 = _mm_add_epi32(msg0, tmsg);
  msg0 = _mm_sha256msg2_epu32(msg0, msg3);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg2 = _mm_sha256msg1_epu32(msg2, msg3);

  // Rounds 32-35.
  msg = _mm_add_epi32(
      msg0, _mm_set_epi64x(0x53380D134D2C6DFCLL, 0x2E1B213827B70A85LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmsg = _mm_alignr_epi8(msg0, msg3, 4);
  msg1 = _mm_add_epi32(msg1, tmsg);
  msg1 = _mm_sha256msg2_epu32(msg1, msg0);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg3 = _mm_sha256msg1_epu32(msg3, msg0);

  // Rounds 36-39.
  msg = _mm_add_epi32(
      msg1, _mm_set_epi64x(0x92722C8581C2C92ELL, 0x766A0ABB650A7354LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmsg = _mm_alignr_epi8(msg1, msg0, 4);
  msg2 = _mm_add_epi32(msg2, tmsg);
  msg2 = _mm_sha256msg2_epu32(msg2, msg1);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg0 = _mm_sha256msg1_epu32(msg0, msg1);

  // Rounds 40-43.
  msg = _mm_add_epi32(
      msg2, _mm_set_epi64x(0xC76C51A3C24B8B70LL, 0xA81A664BA2BFE8A1LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmsg = _mm_alignr_epi8(msg2, msg1, 4);
  msg3 = _mm_add_epi32(msg3, tmsg);
  msg3 = _mm_sha256msg2_epu32(msg3, msg2);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg1 = _mm_sha256msg1_epu32(msg1, msg2);

  // Rounds 44-47.
  msg = _mm_add_epi32(
      msg3, _mm_set_epi64x(0x106AA070F40E3585LL, 0xD6990624D192E819LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmsg = _mm_alignr_epi8(msg3, msg2, 4);
  msg0 = _mm_add_epi32(msg0, tmsg);
  msg0 = _mm_sha256msg2_epu32(msg0, msg3);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg2 = _mm_sha256msg1_epu32(msg2, msg3);

  // Rounds 48-51.
  msg = _mm_add_epi32(
      msg0, _mm_set_epi64x(0x34B0BCB52748774CLL, 0x1E376C0819A4C116LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmsg = _mm_alignr_epi8(msg0, msg3, 4);
  msg1 = _mm_add_epi32(msg1, tmsg);
  msg1 = _mm_sha256msg2_epu32(msg1, msg0);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
  msg3 = _mm_sha256msg1_epu32(msg3, msg0);

  // Rounds 52-55.
  msg = _mm_add_epi32(
      msg1, _mm_set_epi64x(0x682E6FF35B9CCA4FLL, 0x4ED8AA4A391C0CB3LL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmsg = _mm_alignr_epi8(msg1, msg0, 4);
  msg2 = _mm_add_epi32(msg2, tmsg);
  msg2 = _mm_sha256msg2_epu32(msg2, msg1);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  // Rounds 56-59.
  msg = _mm_add_epi32(
      msg2, _mm_set_epi64x(0x8CC7020884C87814LL, 0x78A5636F748F82EELL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  tmsg = _mm_alignr_epi8(msg2, msg1, 4);
  msg3 = _mm_add_epi32(msg3, tmsg);
  msg3 = _mm_sha256msg2_epu32(msg3, msg2);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  // Rounds 60-63.
  msg = _mm_add_epi32(
      msg3, _mm_set_epi64x(0xC67178F2BEF9A3F7LL, 0xA4506CEB90BEFFFALL));
  state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
  msg = _mm_shuffle_epi32(msg, 0x0E);
  state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

  state0 = _mm_add_epi32(state0, abef_save);
  state1 = _mm_add_epi32(state1, cdgh_save);

  tmp = _mm_shuffle_epi32(state0, 0x1B);        // FEBA
  state1 = _mm_shuffle_epi32(state1, 0xB1);     // DCHG
  state0 = _mm_blend_epi16(tmp, state1, 0xF0);  // DCBA
  state1 = _mm_alignr_epi8(state1, tmp, 8);     // HGFE
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state), state0);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4), state1);
}
#endif

void compress_portable(std::uint32_t* state, const std::uint8_t* block) noexcept {
  std::uint32_t w[64];
  for (int t = 0; t < 16; ++t) w[t] = load_be32(block + 4 * t);
  for (int t = 16; t < 64; ++t) {
    w[t] = small_sigma1(w[t - 2]) + w[t - 7] + small_sigma0(w[t - 15]) +
           w[t - 16];
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (int t = 0; t < 64; ++t) {
    const std::uint32_t t1 = h + big_sigma1(e) + ch(e, f, g) + kK[t] + w[t];
    const std::uint32_t t2 = big_sigma0(a) + maj(a, b, c);
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

}  // namespace

void Sha256::reset() noexcept {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha256::process_block(const std::uint8_t* block) noexcept {
#if defined(LDKE_CRYPTO_X86)
  if (detail::cpu_has_sha_ni()) {
    process_block_shani(state_.data(), block);
    return;
  }
#endif
  compress_portable(state_.data(), block);
}

void Sha256::update(std::span<const std::uint8_t> data) noexcept {
  if (data.empty()) return;  // an empty span may carry a null data()
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t take =
        std::min(data.size(), kSha256BlockBytes - buffered_);
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == kSha256BlockBytes) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + kSha256BlockBytes <= data.size()) {
    process_block(data.data() + offset);
    offset += kSha256BlockBytes;
  }
  if (offset < data.size()) {
    buffered_ = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, buffered_);
  }
}

Sha256Digest Sha256::finish() noexcept {
  const std::uint64_t bit_length = total_bytes_ * 8;
  const std::uint8_t pad_byte = 0x80;
  update({&pad_byte, 1});
  static constexpr std::uint8_t kZero[kSha256BlockBytes] = {};
  while (buffered_ != kSha256BlockBytes - 8) {
    const std::size_t gap = buffered_ < kSha256BlockBytes - 8
                                ? (kSha256BlockBytes - 8) - buffered_
                                : kSha256BlockBytes - buffered_;
    update({kZero, gap});
  }
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_length >> (56 - 8 * i));
  }
  update({len_be, 8});

  Sha256Digest digest;
  for (int i = 0; i < 8; ++i) store_be32(digest.data() + 4 * i, state_[i]);
  return digest;
}

Sha256Midstate Sha256::compressed_state() const noexcept {
  // Capturing mid-block would lose buffered bytes; all callers capture
  // right after whole-block updates (HMAC pads its key to a full block).
  return Sha256Midstate{state_, total_bytes_};
}

Sha256 Sha256::resume(const Sha256Midstate& mid) noexcept {
  Sha256 ctx;
  ctx.state_ = mid.state;
  ctx.total_bytes_ = mid.total_bytes;
  return ctx;
}

Sha256Digest sha256(std::span<const std::uint8_t> data) noexcept {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

}  // namespace ldke::crypto
