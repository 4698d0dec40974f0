#include "core/keys.hpp"

#include <gtest/gtest.h>

#include "crypto/obs.hpp"
#include "crypto/prf.hpp"
#include "crypto/seal_context.hpp"
#include "support/hex.hpp"

namespace ldke::core {
namespace {

crypto::Key128 key_of(std::uint8_t b) {
  crypto::Key128 k;
  k.bytes.fill(b);
  return k;
}

TEST(ClusterKeySet, EmptyInitially) {
  ClusterKeySet s;
  EXPECT_FALSE(s.has_own());
  EXPECT_EQ(s.own_cid(), kNoCluster);
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.key_for(3).has_value());
}

TEST(ClusterKeySet, SetOwnStoresKey) {
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  EXPECT_TRUE(s.has_own());
  EXPECT_EQ(s.own_cid(), 5u);
  EXPECT_EQ(s.own_key(), key_of(1));
  EXPECT_EQ(s.size(), 1u);
  EXPECT_EQ(s.neighbor_count(), 0u);
}

TEST(ClusterKeySet, AddNeighborKeys) {
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  EXPECT_TRUE(s.add_neighbor(6, key_of(2)));
  EXPECT_TRUE(s.add_neighbor(7, key_of(3)));
  EXPECT_EQ(s.size(), 3u);
  EXPECT_EQ(s.neighbor_count(), 2u);
  EXPECT_EQ(s.key_for(6), key_of(2));
}

TEST(ClusterKeySet, AddNeighborIgnoresDuplicatesAndOwn) {
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  EXPECT_FALSE(s.add_neighbor(5, key_of(9)));  // own cluster
  EXPECT_TRUE(s.add_neighbor(6, key_of(2)));
  EXPECT_FALSE(s.add_neighbor(6, key_of(9)));  // duplicate keeps original
  EXPECT_EQ(s.key_for(6), key_of(2));
  EXPECT_EQ(s.key_for(5), key_of(1));
}

TEST(ClusterKeySet, ReplaceUpdatesExistingOnly) {
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  s.add_neighbor(6, key_of(2));
  EXPECT_TRUE(s.replace(6, key_of(8)));
  EXPECT_EQ(s.key_for(6), key_of(8));
  EXPECT_FALSE(s.replace(99, key_of(9)));
  EXPECT_FALSE(s.key_for(99).has_value());
}

TEST(ClusterKeySet, RevokeDeletesKey) {
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  s.add_neighbor(6, key_of(2));
  EXPECT_TRUE(s.revoke(6));
  EXPECT_FALSE(s.key_for(6).has_value());
  EXPECT_FALSE(s.revoke(6));
  EXPECT_EQ(s.size(), 1u);
}

TEST(ClusterKeySet, RevokeOwnClearsOwnership) {
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  EXPECT_TRUE(s.revoke(5));
  EXPECT_FALSE(s.has_own());
  EXPECT_EQ(s.size(), 0u);
}

TEST(ClusterKeySet, SetOwnTwiceDropsOldOwnEntry) {
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  s.set_own(9, key_of(2));
  EXPECT_EQ(s.own_cid(), 9u);
  EXPECT_FALSE(s.key_for(5).has_value());
  EXPECT_EQ(s.size(), 1u);
}

TEST(ClusterKeySet, HashRefreshAppliesOneWayToEveryKey) {
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  s.add_neighbor(6, key_of(2));
  s.hash_refresh_all();
  EXPECT_EQ(s.key_for(5), crypto::one_way(key_of(1)));
  EXPECT_EQ(s.key_for(6), crypto::one_way(key_of(2)));
}

TEST(ClusterKeySet, ClearDropsEverything) {
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  s.add_neighbor(6, key_of(2));
  s.clear();
  EXPECT_EQ(s.size(), 0u);
  EXPECT_FALSE(s.has_own());
}

// ---- context_for: one build charged per holder per key value ----

/// prf calls charged by \p uses calls of context_for(\p cid).
std::uint64_t charged(const ClusterKeySet& s, ClusterId cid, int uses = 3) {
  crypto::CryptoCounters counts;
  crypto::ScopedCryptoCounters scope{counts};
  for (int i = 0; i < uses; ++i) EXPECT_TRUE(s.context_for(cid).has_value());
  return counts.prf_calls;
}

TEST(ClusterKeyContexts, RepeatedUseChargesTheBuildOnce) {
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  s.add_neighbor(6, key_of(2));
  EXPECT_EQ(charged(s, 5), 2u);
  EXPECT_EQ(charged(s, 5), 0u);
  EXPECT_EQ(charged(s, 6), 2u);
  EXPECT_EQ(charged(s, 6, 10), 0u);
}

TEST(ClusterKeyContexts, ReplacingWithTheSameBytesChargesNothing) {
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  s.add_neighbor(6, key_of(2));
  EXPECT_EQ(charged(s, 5), 2u);
  EXPECT_EQ(charged(s, 6), 2u);
  EXPECT_TRUE(s.replace(6, key_of(2)));
  s.set_own(5, key_of(1));
  EXPECT_FALSE(s.add_neighbor(6, key_of(7)));  // held: the key stays
  EXPECT_EQ(charged(s, 5), 0u);
  EXPECT_EQ(charged(s, 6), 0u);
}

TEST(ClusterKeyContexts, EveryNewKeyValueChargesTheNextUseOnce) {
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  s.add_neighbor(6, key_of(2));
  EXPECT_EQ(charged(s, 5), 2u);
  EXPECT_EQ(charged(s, 6), 2u);

  s.hash_refresh_all();
  EXPECT_EQ(charged(s, 5), 2u);
  EXPECT_EQ(charged(s, 6), 2u);

  EXPECT_TRUE(s.replace(6, key_of(8)));
  EXPECT_EQ(charged(s, 5), 0u);
  EXPECT_EQ(charged(s, 6), 2u);

  s.set_own(5, key_of(9));
  EXPECT_EQ(charged(s, 5), 2u);
  EXPECT_EQ(charged(s, 6), 0u);

  // A revoked key re-added with the very same bytes is a new key to hold.
  EXPECT_TRUE(s.revoke(6));
  EXPECT_TRUE(s.add_neighbor(6, key_of(8)));
  EXPECT_EQ(charged(s, 6), 2u);
  EXPECT_EQ(charged(s, 5), 0u);

  s.clear();
  s.set_own(5, key_of(9));
  EXPECT_EQ(charged(s, 5), 2u);
}

TEST(ClusterKeyContexts, HeldKeysNeverUsedChargeNothing) {
  crypto::CryptoCounters counts;
  crypto::ScopedCryptoCounters scope{counts};
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  for (ClusterId cid = 6; cid < 12; ++cid) {
    s.add_neighbor(cid, key_of(static_cast<std::uint8_t>(cid)));
  }
  EXPECT_FALSE(s.context_for(99).has_value());
  EXPECT_EQ(counts.prf_calls, 0u);
  (void)s.context_for(7);
  EXPECT_EQ(counts.prf_calls, 2u);
}

TEST(ClusterKeyContexts, ContextSealsLikeOneBuiltFromTheKey) {
  ClusterKeySet s;
  s.set_own(5, key_of(1));
  s.add_neighbor(6, key_of(2));
  const support::Bytes plain = support::bytes_of("hop payload");
  const support::Bytes aad = support::bytes_of("header");
  for (int use = 0; use < 2; ++use) {  // the build, then a reuse
    EXPECT_EQ(s.context_for(6)->seal(7, plain, aad),
              crypto::SealContext{key_of(2)}.seal(7, plain, aad));
    EXPECT_EQ(s.context_for(5)->seal(8, plain, aad),
              crypto::SealContext{key_of(1)}.seal(8, plain, aad));
  }
  s.hash_refresh_all();
  EXPECT_EQ(s.context_for(6)->seal(9, plain, aad),
            crypto::SealContext{crypto::one_way(key_of(2))}.seal(9, plain, aad));
}

TEST(NodeSecrets, EraseMaster) {
  NodeSecrets secrets;
  secrets.master_key = key_of(0x5a);
  EXPECT_FALSE(secrets.master_erased());
  secrets.erase_master();
  EXPECT_TRUE(secrets.master_erased());
  EXPECT_TRUE(secrets.master_key.is_zero());
}

TEST(NodeSecrets, EraseKmc) {
  NodeSecrets secrets;
  secrets.kmc = key_of(0x66);
  secrets.has_kmc = true;
  secrets.erase_kmc();
  EXPECT_FALSE(secrets.has_kmc);
  EXPECT_TRUE(secrets.kmc.is_zero());
}

}  // namespace
}  // namespace ldke::core
