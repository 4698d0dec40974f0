// The per-thread memos behind one_way, SealContext(const Key128&) with
// SealContext::reuse, SealContext::open and mac: exact-input hits only,
// the same counter increments as the computation (none for reuse), and
// the same results from any number of threads.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "crypto/drbg.hpp"
#include "crypto/hmac.hpp"
#include "crypto/key_memo.hpp"
#include "crypto/obs.hpp"
#include "crypto/prf.hpp"
#include "crypto/seal_context.hpp"
#include "support/hex.hpp"
#include "support/thread_pool.hpp"

namespace ldke::crypto {
namespace {

using support::Bytes;

Bytes random_bytes(Drbg& drbg, std::size_t n) {
  Bytes out(n);
  drbg.generate(out);
  return out;
}

// F(K) computed without the memo: the "chain"-labelled PRF.
Key128 reference_one_way(const Key128& key) {
  return prf(key, support::bytes_of("chain"));
}

// Same first eight bytes as \p key, so the same memo set whatever the
// table size.
Key128 same_set_as(const Key128& key, std::uint8_t salt) {
  Key128 out = key;
  out.bytes[15] ^= salt;
  out.bytes[9] ^= static_cast<std::uint8_t>(salt * 3);
  return out;
}

// ---- SealContext::open ----

TEST(OpenMemo, RepeatedOpensReturnIdenticalPlaintextAndCountEachCall) {
  Drbg drbg{0x0e1};
  const SealContext ctx{drbg.next_key()};
  const Bytes plain = random_bytes(drbg, 40);
  const Bytes aad = random_bytes(drbg, 16);
  const Bytes sealed = ctx.seal(11, plain, aad);

  CryptoCounters counts;
  ScopedCryptoCounters scope{counts};
  for (int i = 0; i < 5; ++i) {
    const auto opened = ctx.open(11, sealed, aad);
    ASSERT_TRUE(opened.has_value()) << "call " << i;
    EXPECT_EQ(*opened, plain) << "call " << i;
  }
  EXPECT_EQ(counts.opens, 5u);
  EXPECT_EQ(counts.opened_bytes, 5u * sealed.size());
  EXPECT_EQ(counts.open_failures, 0u);
}

// A hop envelope in flight across a hash refresh: sealed under K, opened
// by one receiver still at K and one already at F(K), in either order.
TEST(OpenMemo, MemoizedSuccessDoesNotLeakToAnotherKey) {
  Drbg drbg{0x0e2};
  const Key128 key = drbg.next_key();
  const SealContext sender{key};
  const SealContext refreshed{one_way(key)};
  const Bytes plain = random_bytes(drbg, 36);
  const Bytes aad = random_bytes(drbg, 16);
  const Bytes sealed = sender.seal(3, plain, aad);

  CryptoCounters counts;
  ScopedCryptoCounters scope{counts};
  ASSERT_EQ(sender.open(3, sealed, aad), plain);
  EXPECT_FALSE(refreshed.open(3, sealed, aad).has_value());
  EXPECT_EQ(counts.opens, 2u);
  EXPECT_EQ(counts.open_failures, 1u);
}

TEST(OpenMemo, MemoizedFailureDoesNotBlockTheRightKey) {
  Drbg drbg{0x0e3};
  const Key128 key = drbg.next_key();
  const SealContext sender{key};
  const SealContext refreshed{one_way(key)};
  const Bytes plain = random_bytes(drbg, 36);
  const Bytes aad = random_bytes(drbg, 16);
  const Bytes sealed = sender.seal(4, plain, aad);

  CryptoCounters counts;
  ScopedCryptoCounters scope{counts};
  EXPECT_FALSE(refreshed.open(4, sealed, aad).has_value());
  EXPECT_FALSE(refreshed.open(4, sealed, aad).has_value());
  EXPECT_EQ(sender.open(4, sealed, aad), plain);
  EXPECT_EQ(counts.opens, 3u);
  EXPECT_EQ(counts.open_failures, 2u);
  EXPECT_EQ(counts.opened_bytes, 3u * sealed.size());
}

// Each variant differs from a just-memoized successful open in one input
// only; each must miss and fail authentication.
TEST(OpenMemo, AnyChangedInputMissesAndFails) {
  Drbg drbg{0x0e4};
  const SealContext ctx{drbg.next_key()};
  const Bytes plain = random_bytes(drbg, 48);
  const Bytes aad = random_bytes(drbg, 16);
  const std::uint64_t nonce = 99;
  const Bytes sealed = ctx.seal(nonce, plain, aad);
  const std::size_t tag_at = sealed.size() - kMacTagBytes;

  struct Variant {
    const char* what;
    std::uint64_t nonce;
    Bytes sealed;
    Bytes aad;
  };
  std::vector<Variant> variants;
  for (const std::size_t at : {std::size_t{0}, tag_at - 1}) {
    Variant v{"ciphertext byte", nonce, sealed, aad};
    v.sealed[at] ^= 0x01;
    variants.push_back(v);
  }
  for (const std::size_t at : {tag_at, sealed.size() - 1}) {
    Variant v{"tag byte", nonce, sealed, aad};
    v.sealed[at] ^= 0x80;
    variants.push_back(v);
  }
  for (const std::size_t at : {std::size_t{0}, aad.size() - 1}) {
    Variant v{"aad byte", nonce, sealed, aad};
    v.aad[at] ^= 0x01;
    variants.push_back(v);
  }
  variants.push_back({"aad length", nonce, sealed, Bytes(aad.begin(), aad.end() - 1)});
  variants.push_back({"nonce", nonce + 1, sealed, aad});
  variants.push_back({"nonce high bit", nonce ^ (1ull << 63), sealed, aad});

  for (const Variant& v : variants) {
    ASSERT_EQ(ctx.open(nonce, sealed, aad), plain) << v.what;
    CryptoCounters counts;
    ScopedCryptoCounters scope{counts};
    EXPECT_FALSE(ctx.open(v.nonce, v.sealed, v.aad).has_value()) << v.what;
    EXPECT_EQ(counts.open_failures, 1u) << v.what;
  }
}

TEST(OpenMemo, InterleavedFramesAndKeysMatchFreshContexts) {
  Drbg drbg{0x0e5};
  std::vector<Key128> keys;
  for (int i = 0; i < 3; ++i) keys.push_back(drbg.next_key());
  struct Frame {
    std::size_t key;
    std::uint64_t nonce;
    Bytes plain;
    Bytes sealed;
    Bytes aad;
  };
  // Frames 11 and 12 are larger than the memo records; they are opened
  // without it.
  std::vector<Frame> frames;
  for (std::uint64_t n = 1; n <= 12; ++n) {
    const std::size_t plain_len = n == 11 ? 400 : 8 + n * 5;
    const std::size_t aad_len = n == 12 ? 80 : (n % 2 == 0 ? 16 : 0);
    Frame f{n % keys.size(), n, random_bytes(drbg, plain_len), {},
            random_bytes(drbg, aad_len)};
    f.sealed = SealContext{derive_pair(keys[f.key])}.seal(f.nonce, f.plain, f.aad);
    frames.push_back(f);
  }
  // Every frame opened under every key, twice in a row and interleaved.
  for (int pass = 0; pass < 3; ++pass) {
    for (const Frame& f : frames) {
      for (std::size_t k = 0; k < keys.size(); ++k) {
        const SealContext ctx{keys[k]};
        for (int rep = 0; rep < 2; ++rep) {
          const auto opened = ctx.open(f.nonce, f.sealed, f.aad);
          if (k == f.key) {
            EXPECT_EQ(opened, f.plain);
          } else {
            EXPECT_FALSE(opened.has_value());
          }
        }
      }
    }
  }
}

// ---- mac ----

// The protocol tag computed without the memo: HMAC-SHA-256, truncated.
MacTag reference_mac(const Key128& key, const Bytes& message) {
  const Sha256Digest full = hmac_sha256(key.span(), message);
  MacTag tag;
  std::memcpy(tag.data(), full.data(), tag.size());
  return tag;
}

// A revocation command heard from every neighbour that forwards it.
TEST(MacMemo, RepeatedTagEqualsTruncatedHmacAndCountsEachCall) {
  Drbg drbg{0x3a1};
  const Key128 key = drbg.next_key();
  const Bytes message = random_bytes(drbg, 14);
  const MacTag want = reference_mac(key, message);

  CryptoCounters counts;
  ScopedCryptoCounters scope{counts};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(mac(key, message), want) << "call " << i;
  }
  EXPECT_TRUE(verify_mac(key, message, want));
  EXPECT_EQ(counts.macs, 6u);
}

// Each variant differs from a just-memoized tag in one input only; each
// must miss and match its own unmemoized tag.
TEST(MacMemo, AnyChangedKeyByteMessageByteOrLengthMisses) {
  Drbg drbg{0x3a2};
  const Key128 key = drbg.next_key();
  const Bytes message = random_bytes(drbg, 30);

  struct Variant {
    const char* what;
    Key128 key;
    Bytes message;
  };
  std::vector<Variant> variants;
  for (const std::size_t at : {std::size_t{0}, kKeyBytes - 1}) {
    Variant v{"key byte", key, message};
    v.key.bytes[at] ^= 0x01;
    variants.push_back(v);
  }
  for (const std::size_t at : {std::size_t{0}, message.size() - 1}) {
    Variant v{"message byte", key, message};
    v.message[at] ^= 0x80;
    variants.push_back(v);
  }
  variants.push_back(
      {"shorter", key, Bytes(message.begin(), message.end() - 1)});
  Bytes longer = message;
  longer.push_back(0);
  variants.push_back({"longer", key, longer});
  variants.push_back({"empty", key, {}});

  for (const Variant& v : variants) {
    ASSERT_EQ(mac(key, message), reference_mac(key, message)) << v.what;
    CryptoCounters counts;
    ScopedCryptoCounters scope{counts};
    EXPECT_EQ(mac(v.key, v.message), reference_mac(v.key, v.message)) << v.what;
    EXPECT_EQ(counts.macs, 1u) << v.what;
  }
}

// Messages past the memo's bound are tagged without it: two that agree
// in every byte the memo could hold still get their own tags.
TEST(MacMemo, MessageOverTheBoundBypassesTheMemoAndStillCounts) {
  Drbg drbg{0x3a3};
  const Key128 key = drbg.next_key();
  const Bytes long_a = random_bytes(drbg, 400);
  Bytes long_b = long_a;
  long_b.back() ^= 0x01;
  const Bytes short_m(long_a.begin(), long_a.begin() + 40);

  CryptoCounters counts;
  ScopedCryptoCounters scope{counts};
  EXPECT_EQ(mac(key, short_m), reference_mac(key, short_m));
  for (int rep = 0; rep < 2; ++rep) {
    EXPECT_EQ(mac(key, long_a), reference_mac(key, long_a)) << "rep " << rep;
    EXPECT_EQ(mac(key, long_b), reference_mac(key, long_b)) << "rep " << rep;
  }
  EXPECT_EQ(mac(key, short_m), reference_mac(key, short_m));
  EXPECT_EQ(counts.macs, 6u);
}

TEST(MacMemo, InterleavedKeysAndMessagesMatchUnmemoizedReference) {
  Drbg drbg{0x3a4};
  std::vector<Key128> keys;
  for (int i = 0; i < 3; ++i) keys.push_back(drbg.next_key());
  keys.push_back(Key128{});  // the memo's initial key bytes
  std::vector<Bytes> messages;
  for (const std::size_t len : {0, 1, 6, 8, 55, 64, 255, 256, 257, 300}) {
    messages.push_back(random_bytes(drbg, len));
  }
  messages.push_back(Bytes(8, 0));

  CryptoCounters counts;
  ScopedCryptoCounters scope{counts};
  std::uint64_t calls = 0;
  const auto check = [&](const Key128& k, const Bytes& m) {
    const MacTag want = reference_mac(k, m);
    for (int rep = 0; rep < 2; ++rep) {
      EXPECT_EQ(mac(k, m), want) << "len " << m.size();
      ++calls;
    }
  };
  // Keys change between consecutive calls, then messages do.
  for (const Bytes& m : messages) {
    for (const Key128& k : keys) check(k, m);
  }
  for (const Key128& k : keys) {
    for (const Bytes& m : messages) check(k, m);
  }
  EXPECT_EQ(counts.macs, calls);
}

// A thread's first call, with the memo still in its initial state, asks
// for the all-zero key and the empty message.
TEST(MacMemo, FirstCallOnAThreadIsComputed) {
  MacTag got{};
  std::thread worker([&] { got = mac(Key128{}, {}); });
  worker.join();
  EXPECT_EQ(got, reference_mac(Key128{}, {}));
}

// ---- SealContext(const Key128&) ----

TEST(ContextMemo, ContextFromMemoSealsLikeOneFromDerivePair) {
  Drbg drbg{0x0c1};
  const Key128 key = drbg.next_key();
  const Bytes aad = random_bytes(drbg, 16);

  CryptoCounters built_counts;
  std::optional<SealContext> built;
  {
    ScopedCryptoCounters scope{built_counts};
    built.emplace(key);  // first use of this key: computed
  }
  CryptoCounters hit_counts;
  std::optional<SealContext> hit;
  {
    ScopedCryptoCounters scope{hit_counts};
    hit.emplace(key);  // memo hit
  }
  CryptoCounters pair_counts;
  std::optional<SealContext> from_pair;
  {
    ScopedCryptoCounters scope{pair_counts};
    from_pair.emplace(derive_pair(key));
  }
  EXPECT_EQ(built_counts.prf_calls, 2u);
  EXPECT_EQ(hit_counts.prf_calls, 2u);
  EXPECT_EQ(pair_counts.prf_calls, 2u);

  for (const std::size_t len : {0, 1, 16, 36, 100}) {
    const Bytes plain = random_bytes(drbg, len);
    const Bytes want = from_pair->seal(len + 1, plain, aad);
    EXPECT_EQ(built->seal(len + 1, plain, aad), want) << "len=" << len;
    EXPECT_EQ(hit->seal(len + 1, plain, aad), want) << "len=" << len;
  }
}

TEST(ContextMemo, KeysSharingASetGetTheirOwnContexts) {
  Drbg drbg{0x0c2};
  const Key128 base = drbg.next_key();
  std::vector<Key128> keys{base};
  for (std::uint8_t salt = 1; salt <= 4; ++salt) {
    keys.push_back(same_set_as(base, salt));
  }
  const Bytes plain = random_bytes(drbg, 30);
  for (int round = 0; round < 4; ++round) {
    for (const Key128& key : keys) {
      CryptoCounters counts;
      ScopedCryptoCounters scope{counts};
      const SealContext ctx{key};
      EXPECT_EQ(ctx.seal(5, plain), SealContext{derive_pair(key)}.seal(5, plain));
      EXPECT_EQ(counts.prf_calls, 4u);
    }
  }
}

TEST(ContextMemo, ReuseCountsNothingHitOrMissAndSealsLikeTheBuild) {
  Drbg drbg{0x0c3};
  const Key128 key = drbg.next_key();
  const Bytes plain = random_bytes(drbg, 36);
  const Bytes want = SealContext{derive_pair(key)}.seal(3, plain);

  CryptoCounters counts;
  ScopedCryptoCounters scope{counts};
  EXPECT_EQ(SealContext::reuse(key).seal(3, plain), want);  // may hit
  // Two keys of the same set push the first out: the next reuse misses
  // and recomputes, still uncounted, and leaves the sink installed.
  (void)SealContext::reuse(same_set_as(key, 1));
  (void)SealContext::reuse(same_set_as(key, 2));
  EXPECT_EQ(SealContext::reuse(key).seal(3, plain), want);
  EXPECT_EQ(counts.prf_calls, 0u);
  EXPECT_EQ(crypto_counters_sink(), &counts);
  EXPECT_EQ(SealContext{key}.seal(3, plain), want);
  EXPECT_EQ(counts.prf_calls, 2u);
}

// ---- one_way ----

TEST(OneWayMemo, LongChainMatchesUnmemoizedPrf) {
  Drbg drbg{0x0a1};
  const Key128 seed = drbg.next_key();
  std::vector<Key128> chain{seed};
  for (int i = 0; i < 10'000; ++i) chain.push_back(reference_one_way(chain.back()));

  CryptoCounters counts;
  ScopedCryptoCounters scope{counts};
  for (int pass = 0; pass < 2; ++pass) {  // computed, then mostly memoized
    Key128 walker = seed;
    for (std::size_t i = 1; i < chain.size(); ++i) {
      one_way_inplace(walker);
      ASSERT_EQ(walker, chain[i]) << "pass " << pass << " step " << i;
    }
  }
  EXPECT_EQ(counts.prf_calls, 2u * (chain.size() - 1));
}

TEST(OneWayMemo, ChainStepsForcedIntoOneSetStayExact) {
  // Every step queries the chain element and two decoys sharing its set,
  // then the element again after the decoys evicted it.
  using Sets = detail::KeyMemo<Key128, (1u << 20)>;
  Drbg drbg{0x0a2};
  Key128 walker = drbg.next_key();
  for (int i = 0; i < 10'000; ++i) {
    const Key128 decoy_a = same_set_as(walker, 0x5a);
    const Key128 decoy_b = same_set_as(walker, 0xa5);
    ASSERT_EQ(Sets::set_index(decoy_a), Sets::set_index(walker));
    ASSERT_EQ(Sets::set_index(decoy_b), Sets::set_index(walker));
    const Key128 next = reference_one_way(walker);
    ASSERT_EQ(one_way(walker), next) << "step " << i;
    ASSERT_EQ(one_way(decoy_a), reference_one_way(decoy_a)) << "step " << i;
    ASSERT_EQ(one_way(decoy_b), reference_one_way(decoy_b)) << "step " << i;
    ASSERT_EQ(one_way(walker), next) << "step " << i;
    walker = next;
  }
}

TEST(OneWayMemo, ZeroKeyIsNotAnEmptySlot) {
  const Key128 zero{};
  EXPECT_EQ(one_way(zero), reference_one_way(zero));
  EXPECT_EQ(one_way(zero), reference_one_way(zero));
}

// ---- the table itself ----

TEST(KeyMemo, ThirdKeyInASetEvictsTheLeastRecentlyUsed) {
  detail::KeyMemo<int, 1> memo;
  Key128 a{};
  Key128 b{};
  Key128 c{};
  b.bytes[15] = 1;
  c.bytes[15] = 2;
  EXPECT_EQ(memo.find(a), nullptr);
  memo.emplace(a, 1);
  memo.emplace(b, 2);
  ASSERT_NE(memo.find(a), nullptr);  // a is now the most recently used
  memo.emplace(c, 3);                // replaces b
  EXPECT_EQ(memo.find(b), nullptr);
  ASSERT_NE(memo.find(a), nullptr);
  ASSERT_NE(memo.find(c), nullptr);
  EXPECT_EQ(*memo.find(a), 1);
  EXPECT_EQ(*memo.find(c), 3);
}

// ---- threads ----

// Shared inputs worked on by four pool workers, each with its own memos
// and its own counters, against one single-thread reference.
TEST(CryptoMemoThreads, PoolWorkersMatchSingleThreadReference) {
  Drbg drbg{0x7a};
  std::vector<Key128> keys;
  for (int i = 0; i < 8; ++i) keys.push_back(drbg.next_key());
  struct Frame {
    std::size_t key;
    std::uint64_t nonce;
    Bytes sealed;
    Bytes aad;
  };
  std::vector<Frame> frames;
  for (std::uint64_t n = 0; n < 24; ++n) {
    Frame f{n % keys.size(), n, {}, random_bytes(drbg, 16)};
    f.sealed = SealContext{derive_pair(keys[f.key])}.seal(
        n, random_bytes(drbg, 24), f.aad);
    frames.push_back(f);
  }

  struct Result {
    std::vector<std::optional<Bytes>> opened;
    std::vector<Key128> refreshed;
    std::vector<Bytes> sealed;
    std::vector<MacTag> tags;
    CryptoCounters counts;
  };
  // Task t walks the inputs from offset t, so workers hit and miss in
  // different orders; each (frame, key) pair is opened twice in a row.
  const auto run = [&](std::size_t t) {
    Result r;
    ScopedCryptoCounters scope{r.counts};
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const Frame& f = frames[(i + t) % frames.size()];
      for (std::size_t k = f.key; k < f.key + 2; ++k) {
        const SealContext ctx{keys[k % keys.size()]};
        r.opened.push_back(ctx.open(f.nonce, f.sealed, f.aad));
        r.opened.push_back(ctx.open(f.nonce, f.sealed, f.aad));
        r.tags.push_back(mac(keys[k % keys.size()], f.aad));
        r.tags.push_back(mac(keys[k % keys.size()], f.aad));
      }
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      Key128 k = keys[(i + t) % keys.size()];
      for (int step = 0; step < 50; ++step) one_way_inplace(k);
      r.refreshed.push_back(k);
      r.sealed.push_back(SealContext{k}.seal(t, support::bytes_of("reading")));
    }
    return r;
  };

  constexpr std::size_t kTasks = 64;
  std::vector<Result> reference;
  for (std::size_t t = 0; t < kTasks; ++t) reference.push_back(run(t));
  std::vector<Result> pooled(kTasks);
  support::ThreadPool pool{4};
  pool.parallel_for(kTasks, [&](std::size_t t) { pooled[t] = run(t); });

  for (std::size_t t = 0; t < kTasks; ++t) {
    EXPECT_EQ(pooled[t].opened, reference[t].opened) << "task " << t;
    EXPECT_EQ(pooled[t].refreshed, reference[t].refreshed) << "task " << t;
    EXPECT_EQ(pooled[t].sealed, reference[t].sealed) << "task " << t;
    EXPECT_EQ(pooled[t].tags, reference[t].tags) << "task " << t;
    const CryptoCounters& got = pooled[t].counts;
    const CryptoCounters& want = reference[t].counts;
    EXPECT_EQ(got.opens, want.opens) << "task " << t;
    EXPECT_EQ(got.open_failures, want.open_failures) << "task " << t;
    EXPECT_EQ(got.opened_bytes, want.opened_bytes) << "task " << t;
    EXPECT_EQ(got.prf_calls, want.prf_calls) << "task " << t;
    EXPECT_EQ(got.seals, want.seals) << "task " << t;
    EXPECT_EQ(got.macs, want.macs) << "task " << t;
  }
  // Two contexts per frame, 50 refreshes and one context per key; half of
  // the opens are under the wrong key.
  const CryptoCounters& first = reference[0].counts;
  EXPECT_EQ(first.prf_calls, frames.size() * 2 * 2 + keys.size() * (50 + 2));
  EXPECT_EQ(first.opens, frames.size() * 2 * 2);
  EXPECT_EQ(first.open_failures, first.opens / 2);
  EXPECT_EQ(first.macs, first.opens);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const Frame& f = frames[i];
    EXPECT_EQ(reference[0].tags[4 * i], reference_mac(keys[f.key], f.aad));
    EXPECT_EQ(reference[0].tags[4 * i + 2],
              reference_mac(keys[(f.key + 1) % keys.size()], f.aad));
  }
}

}  // namespace
}  // namespace ldke::crypto
