#pragma once
/// \file obs.hpp
/// Self-contained crypto instrumentation.  The crypto layer sits below
/// the observability subsystem in the dependency graph (ldke_crypto
/// links only ldke_support), so it exposes its own tiny counter sink
/// instead of pulling in obs::MetricRegistry.  A thread-local pointer
/// names the active sink; SealContext, prf and mac bump it when
/// installed and skip one branch when not.  Install with
/// ScopedCryptoCounters around a region (a runner method, one node's
/// packet handler) to attribute the work done inside it.
///
/// Counting rule: the counters record the crypto work the deployment
/// does, not the work this process does.  one_way, SealContext(const
/// Key128&), SealContext::open and mac answer repeated inputs from
/// per-thread memos; a memo hit increments exactly the fields the
/// computation would have (one prf call per one_way, two per context;
/// opens, opened_bytes and, for a rejected envelope, open_failures; one
/// mac per tag).  Totals, per-node attribution and lane determinism are
/// therefore independent of which calls hit.
///
/// A holder (a node, for its key set S, Km and Ki; the base station, for
/// each source's Ki) builds a context once per key value, as a mote
/// keeps its cipher state until the key changes: its first use of a key
/// value is the counted SealContext(const Key128&), and every later use
/// is SealContext::reuse, which counts nothing.  The holder keeps one
/// "built" flag per key in use and clears it exactly when that key's
/// bytes change, so a refresh, a replace with new bytes, a revocation or
/// an erase makes the next use charge once more.

#include <cstdint>

namespace ldke::crypto {

struct CryptoCounters {
  std::uint64_t seals = 0;          ///< SealContext::seal calls
  std::uint64_t opens = 0;          ///< SealContext::open calls (any result)
  std::uint64_t open_failures = 0;  ///< opens rejected (MAC mismatch/short)
  std::uint64_t prf_calls = 0;      ///< F(K, .) evaluations, all variants
  std::uint64_t sealed_bytes = 0;   ///< plaintext bytes through seal()
  std::uint64_t opened_bytes = 0;   ///< ciphertext bytes through open()
  std::uint64_t macs = 0;           ///< mac() tags, made or verified

  CryptoCounters& operator+=(const CryptoCounters& other) noexcept {
    seals += other.seals;
    opens += other.opens;
    open_failures += other.open_failures;
    prf_calls += other.prf_calls;
    sealed_bytes += other.sealed_bytes;
    opened_bytes += other.opened_bytes;
    macs += other.macs;
    return *this;
  }
};

/// The sink receiving increments on this thread; nullptr disables.
[[nodiscard]] CryptoCounters* crypto_counters_sink() noexcept;
void set_crypto_counters_sink(CryptoCounters* sink) noexcept;

/// RAII install/restore.  Nests: the inner scope captures, the outer
/// resumes when it ends.
class ScopedCryptoCounters {
 public:
  explicit ScopedCryptoCounters(CryptoCounters& sink) noexcept
      : previous_(crypto_counters_sink()) {
    set_crypto_counters_sink(&sink);
  }
  ~ScopedCryptoCounters() { set_crypto_counters_sink(previous_); }

  ScopedCryptoCounters(const ScopedCryptoCounters&) = delete;
  ScopedCryptoCounters& operator=(const ScopedCryptoCounters&) = delete;

 private:
  CryptoCounters* previous_;
};

}  // namespace ldke::crypto
