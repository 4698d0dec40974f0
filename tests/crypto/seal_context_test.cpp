#include "crypto/seal_context.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "crypto/authenc.hpp"
#include "crypto/ctr.hpp"
#include "crypto/drbg.hpp"
#include "crypto/prf.hpp"
#include "support/hex.hpp"

namespace ldke::crypto {
namespace {

using support::Bytes;
using support::bytes_of;

// Payload sizes swept by the equivalence tests: every block-boundary
// straddle plus mote-sized and bulk payloads, 0 through 4096.
const std::vector<std::size_t> kLengths = {0,  1,  15,  16,  17,   36,  63,
                                           64, 65, 128, 255, 1024, 4096};

Bytes random_bytes(Drbg& drbg, std::size_t n) {
  Bytes out(n);
  drbg.generate(out);
  return out;
}

// ---- AesCtrContext vs one-shot ctr_crypt ----

TEST(AesCtrContext, MatchesOneShotCtrCrypt) {
  Drbg drbg{0x5eedu};
  for (int trial = 0; trial < 8; ++trial) {
    const Key128 key = drbg.next_key();
    const AesCtrContext ctx{key};
    for (const std::size_t len : kLengths) {
      const std::uint64_t nonce = drbg.next_u64();
      const Bytes plain = random_bytes(drbg, len);
      Bytes via_ctx = plain;
      ctx.crypt(nonce, via_ctx);
      Bytes via_free = plain;
      ctr_crypt(key, nonce, via_free);
      ASSERT_EQ(via_ctx, via_free) << "len=" << len;
    }
  }
}

TEST(AesCtrContext, ReusedContextIsStateless) {
  Drbg drbg{1};
  const Key128 key = drbg.next_key();
  const AesCtrContext ctx{key};
  const Bytes plain = random_bytes(drbg, 100);
  Bytes first = plain;
  ctx.crypt(7, first);
  // A second message under another nonce must not disturb replays of the
  // first (the context holds no per-message state).
  Bytes other = random_bytes(drbg, 300);
  ctx.crypt(8, other);
  Bytes again = plain;
  ctx.crypt(7, again);
  EXPECT_EQ(first, again);
}

TEST(AesCtrContext, DecryptInvertsEncrypt) {
  Drbg drbg{2};
  const Key128 key = drbg.next_key();
  const AesCtrContext ctx{key};
  const Bytes plain = random_bytes(drbg, 333);
  const Bytes cipher = ctx.encrypt(42, plain);
  EXPECT_NE(cipher, plain);
  EXPECT_EQ(ctx.decrypt(42, cipher), plain);
  EXPECT_EQ(cipher, ctr_encrypt(key, 42, plain));
}

// ---- PrfContext vs one-shot prf/derive_pair ----

TEST(PrfContext, MatchesOneShotPrf) {
  Drbg drbg{3};
  for (int trial = 0; trial < 8; ++trial) {
    const Key128 key = drbg.next_key();
    const PrfContext ctx{key};
    for (const std::size_t len : {std::size_t{0}, std::size_t{8},
                                  std::size_t{64}, std::size_t{200}}) {
      const Bytes data = random_bytes(drbg, len);
      EXPECT_EQ(ctx(data), prf(key, data));
    }
    const std::uint64_t label = drbg.next_u64();
    EXPECT_EQ(ctx.u64(label), prf_u64(key, label));
    const KeyPair pair = derive_pair(key);
    EXPECT_EQ(ctx.pair().encr, pair.encr);
    EXPECT_EQ(ctx.pair().mac, pair.mac);
  }
}

// ---- SealContext vs the free seal/open envelope functions ----

TEST(SealContext, SealMatchesFreeSealForKeyPair) {
  Drbg drbg{4};
  for (int trial = 0; trial < 4; ++trial) {
    KeyPair keys{drbg.next_key(), drbg.next_key()};
    const SealContext ctx{keys};
    for (const std::size_t len : kLengths) {
      const std::uint64_t nonce = drbg.next_u64();
      const Bytes plain = random_bytes(drbg, len);
      const Bytes aad = random_bytes(drbg, len % 40);
      ASSERT_EQ(ctx.seal(nonce, plain, aad), seal(keys, nonce, plain, aad))
          << "len=" << len;
    }
  }
}

TEST(SealContext, SealMatchesFreeSealWithForSingleKey) {
  Drbg drbg{5};
  for (int trial = 0; trial < 4; ++trial) {
    const Key128 key = drbg.next_key();
    const SealContext ctx{key};
    for (const std::size_t len : kLengths) {
      const std::uint64_t nonce = drbg.next_u64();
      const Bytes plain = random_bytes(drbg, len);
      const Bytes aad = random_bytes(drbg, (len * 7) % 33);
      ASSERT_EQ(ctx.seal(nonce, plain, aad),
                seal_with(key, nonce, plain, aad))
          << "len=" << len;
    }
  }
}

TEST(SealContext, OpensEnvelopesSealedByFreeFunctions) {
  Drbg drbg{6};
  const Key128 key = drbg.next_key();
  const SealContext ctx{key};
  for (const std::size_t len : kLengths) {
    const std::uint64_t nonce = drbg.next_u64();
    const Bytes plain = random_bytes(drbg, len);
    const Bytes aad = random_bytes(drbg, 9);
    const Bytes sealed = seal_with(key, nonce, plain, aad);
    const auto opened = ctx.open(nonce, sealed, aad);
    ASSERT_TRUE(opened.has_value()) << "len=" << len;
    EXPECT_EQ(*opened, plain);
    // And the reverse direction: free open_with on a context-sealed
    // envelope.
    const auto opened_free =
        open_with(key, nonce, ctx.seal(nonce, plain, aad), aad);
    ASSERT_TRUE(opened_free.has_value()) << "len=" << len;
    EXPECT_EQ(*opened_free, plain);
  }
}

TEST(SealContext, OpenRejectsTampering) {
  Drbg drbg{7};
  const SealContext ctx{drbg.next_key()};
  const Bytes plain = bytes_of("step-2 hop payload");
  const Bytes aad = bytes_of("CID");
  Bytes sealed = ctx.seal(11, plain, aad);

  Bytes flipped_ct = sealed;
  flipped_ct[0] ^= 0x01;
  EXPECT_FALSE(ctx.open(11, flipped_ct, aad).has_value());

  Bytes flipped_tag = sealed;
  flipped_tag.back() ^= 0x80;
  EXPECT_FALSE(ctx.open(11, flipped_tag, aad).has_value());

  EXPECT_FALSE(ctx.open(12, sealed, aad).has_value());  // wrong nonce
  EXPECT_FALSE(ctx.open(11, sealed, bytes_of("DIC")).has_value());
  EXPECT_FALSE(
      ctx.open(11, std::span{sealed}.first(kSealOverheadBytes - 1), aad)
          .has_value());  // shorter than a bare tag
}

TEST(SealContext, EmptyPlaintextRoundTrips) {
  Drbg drbg{8};
  const SealContext ctx{drbg.next_key()};
  const Bytes sealed = ctx.seal(1, {});
  EXPECT_EQ(sealed.size(), kSealOverheadBytes);
  const auto opened = ctx.open(1, sealed);
  ASSERT_TRUE(opened.has_value());
  EXPECT_TRUE(opened->empty());
}

}  // namespace
}  // namespace ldke::crypto
