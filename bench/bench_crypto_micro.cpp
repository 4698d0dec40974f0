/// Micro-benchmarks of the crypto substrate (google-benchmark): the
/// per-packet costs behind every simulated hop — AES blocks, SHA-256,
/// HMAC tags, and the full seal/open envelope path.
///
/// one_way, SealContext(const Key128&) and SealContext::open remember
/// their last inputs per thread, so a benchmark that repeats one input
/// would time a memo hit.  Those that measure the computation rotate
/// their inputs; the *MemoHit benchmarks time the hits on purpose.

#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "crypto/aes128.hpp"
#include "crypto/authenc.hpp"
#include "crypto/hmac.hpp"
#include "crypto/keychain.hpp"
#include "crypto/prf.hpp"
#include "crypto/seal_context.hpp"
#include "crypto/sha256.hpp"

namespace {

using namespace ldke;

crypto::Key128 bench_key() {
  crypto::Key128 k;
  for (int i = 0; i < 16; ++i) k.bytes[i] = static_cast<std::uint8_t>(i * 11);
  return k;
}

/// bench_key() with its first eight bytes replaced by \p i: a key no
/// earlier iteration used, so every memo misses.
crypto::Key128 fresh_key(std::uint64_t i) {
  crypto::Key128 k = bench_key();
  std::memcpy(k.bytes.data(), &i, sizeof i);
  return k;
}

/// Envelopes under distinct nonces, opened in rotation so that no open
/// repeats the one before it.
constexpr std::uint64_t kOpenRing = 64;

void BM_Aes128Block(benchmark::State& state) {
  const crypto::Aes128 aes{bench_key()};
  crypto::AesBlock block{};
  for (auto _ : state) {
    aes.encrypt_block(block);
    benchmark::DoNotOptimize(block);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_Aes128Block);

void BM_Aes128KeySchedule(benchmark::State& state) {
  const crypto::Key128 key = bench_key();
  for (auto _ : state) {
    crypto::Aes128 aes{key};
    benchmark::DoNotOptimize(aes);
  }
}
BENCHMARK(BM_Aes128KeySchedule);

void BM_Sha256(benchmark::State& state) {
  support::Bytes msg(static_cast<std::size_t>(state.range(0)), 0x5a);
  for (auto _ : state) {
    auto digest = crypto::sha256(msg);
    benchmark::DoNotOptimize(digest);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(64)->Arg(256)->Arg(4096);

void BM_HmacTag(benchmark::State& state) {
  const crypto::Key128 key = bench_key();
  support::Bytes msg(static_cast<std::size_t>(state.range(0)), 0x42);
  for (auto _ : state) {
    auto tag = crypto::mac(key, msg);
    benchmark::DoNotOptimize(tag);
  }
}
BENCHMARK(BM_HmacTag)->Arg(36)->Arg(128);

void BM_PrfDerive(benchmark::State& state) {
  const crypto::Key128 key = bench_key();
  std::uint64_t label = 0;
  for (auto _ : state) {
    auto derived = crypto::prf_u64(key, label++);
    benchmark::DoNotOptimize(derived);
  }
}
BENCHMARK(BM_PrfDerive);

void BM_PrfDeriveCached(benchmark::State& state) {
  const crypto::PrfContext ctx{bench_key()};
  std::uint64_t label = 0;
  for (auto _ : state) {
    auto derived = ctx.u64(label++);
    benchmark::DoNotOptimize(derived);
  }
}
BENCHMARK(BM_PrfDeriveCached);

// The per-packet hot path: a long-lived SealContext, per-message work
// only.  This is what sensor_node/base_station now execute per hop.
void BM_SealEnvelope(benchmark::State& state) {
  const crypto::SealContext ctx{bench_key()};
  support::Bytes payload(static_cast<std::size_t>(state.range(0)), 0x33);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    auto sealed = ctx.seal(++nonce, payload);
    benchmark::DoNotOptimize(sealed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SealEnvelope)->Arg(36)->Arg(128);

void BM_OpenEnvelope(benchmark::State& state) {
  const crypto::SealContext ctx{bench_key()};
  support::Bytes payload(static_cast<std::size_t>(state.range(0)), 0x33);
  std::vector<support::Bytes> sealed;
  for (std::uint64_t n = 0; n < kOpenRing; ++n) {
    sealed.push_back(ctx.seal(n, payload));
  }
  std::uint64_t n = 0;
  for (auto _ : state) {
    auto plain = ctx.open(n, sealed[n]);
    benchmark::DoNotOptimize(plain);
    n = (n + 1) % kOpenRing;
  }
}
BENCHMARK(BM_OpenEnvelope)->Arg(36)->Arg(128);

// Every receiver after the first of a broadcast under a shared key: the
// same envelope under the same context, answered from the open memo.
void BM_OpenEnvelopeMemoHit(benchmark::State& state) {
  const crypto::SealContext ctx{bench_key()};
  support::Bytes payload(static_cast<std::size_t>(state.range(0)), 0x33);
  const auto sealed = ctx.seal(7, payload);
  for (auto _ : state) {
    auto plain = ctx.open(7, sealed);
    benchmark::DoNotOptimize(plain);
  }
}
BENCHMARK(BM_OpenEnvelopeMemoHit)->Arg(36)->Arg(128);

// One-shot free-function path (key pair pre-derived, but AES schedule +
// HMAC midstates re-computed per call) — the pre-caching baseline.
void BM_SealEnvelopeUncached(benchmark::State& state) {
  const crypto::KeyPair keys = crypto::derive_pair(bench_key());
  support::Bytes payload(static_cast<std::size_t>(state.range(0)), 0x33);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    auto sealed = crypto::seal(keys, ++nonce, payload);
    benchmark::DoNotOptimize(sealed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_SealEnvelopeUncached)->Arg(36)->Arg(128);

void BM_OpenEnvelopeUncached(benchmark::State& state) {
  const crypto::KeyPair keys = crypto::derive_pair(bench_key());
  support::Bytes payload(static_cast<std::size_t>(state.range(0)), 0x33);
  std::vector<support::Bytes> sealed;
  for (std::uint64_t n = 0; n < kOpenRing; ++n) {
    sealed.push_back(crypto::seal(keys, n, payload));
  }
  std::uint64_t n = 0;
  for (auto _ : state) {
    auto plain = crypto::open(keys, n, sealed[n]);
    benchmark::DoNotOptimize(plain);
    n = (n + 1) % kOpenRing;
  }
}
BENCHMARK(BM_OpenEnvelopeUncached)->Arg(36)->Arg(128);

// Worst one-shot case: a root key no earlier call used, pair derivation
// included — what every seal_with/open_with call paid before context
// caching.
void BM_SealEnvelopeFromRootKey(benchmark::State& state) {
  support::Bytes payload(static_cast<std::size_t>(state.range(0)), 0x33);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    ++nonce;
    auto sealed = crypto::seal_with(fresh_key(nonce), nonce, payload);
    benchmark::DoNotOptimize(sealed);
  }
}
BENCHMARK(BM_SealEnvelopeFromRootKey)->Arg(36);

void BM_SealContextSetup(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    crypto::SealContext ctx{fresh_key(++i)};
    benchmark::DoNotOptimize(ctx);
  }
}
BENCHMARK(BM_SealContextSetup);

// A holder of a cluster key rebuilding its context after another holder
// already built one for the same key: a copy out of the context memo.
void BM_SealContextSetupMemoHit(benchmark::State& state) {
  const crypto::Key128 key = bench_key();
  for (auto _ : state) {
    crypto::SealContext ctx{key};
    benchmark::DoNotOptimize(ctx);
  }
}
BENCHMARK(BM_SealContextSetupMemoHit);

void BM_KeyChainGeneration(benchmark::State& state) {
  std::uint64_t i = 0;
  for (auto _ : state) {
    crypto::KeyChain chain{fresh_key(++i),
                           static_cast<std::size_t>(state.range(0))};
    benchmark::DoNotOptimize(chain.commitment());
  }
}
BENCHMARK(BM_KeyChainGeneration)->Arg(64)->Arg(1024);

void BM_ChainVerify(benchmark::State& state) {
  // (K_1, K_0) pairs of 2^16 distinct one-step chains, verified in
  // rotation: far more keys than the one_way memo holds, so each F misses.
  constexpr std::size_t kChains = std::size_t{1} << 16;
  std::vector<crypto::Key128> revealed;
  std::vector<crypto::Key128> commitments;
  for (std::uint64_t i = 0; i < kChains; ++i) {
    revealed.push_back(fresh_key(i));
    commitments.push_back(crypto::one_way(revealed.back()));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    crypto::ChainVerifier verifier{commitments[i]};
    benchmark::DoNotOptimize(verifier.accept(revealed[i]));
    i = (i + 1) % kChains;
  }
}
BENCHMARK(BM_ChainVerify);

// A refresh round's later holders of one cluster key: F(Kc) out of the
// one_way memo.
void BM_OneWayMemoHit(benchmark::State& state) {
  const crypto::Key128 key = bench_key();
  for (auto _ : state) {
    auto next = crypto::one_way(key);
    benchmark::DoNotOptimize(next);
  }
}
BENCHMARK(BM_OneWayMemoHit);

}  // namespace

BENCHMARK_MAIN();
