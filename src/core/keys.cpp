#include "core/keys.hpp"

#include "crypto/prf.hpp"

namespace ldke::core {

void ClusterKeySet::set_own(ClusterId cid, const crypto::Key128& key) {
  if (own_cid_ != kNoCluster && own_cid_ != cid) {
    keys_.erase(own_cid_);
    built_.erase(own_cid_);
  }
  own_cid_ = cid;
  crypto::Key128& held = keys_[cid];
  if (held != key) built_.erase(cid);
  held = key;
}

bool ClusterKeySet::add_neighbor(ClusterId cid, const crypto::Key128& key) {
  if (cid == own_cid_) return false;
  return keys_.try_emplace(cid, key).second;
}

std::optional<crypto::Key128> ClusterKeySet::key_for(ClusterId cid) const {
  const auto it = keys_.find(cid);
  if (it == keys_.end()) return std::nullopt;
  return it->second;
}

std::optional<crypto::SealContext> ClusterKeySet::context_for(
    ClusterId cid) const {
  const auto it = keys_.find(cid);
  if (it == keys_.end()) return std::nullopt;
  if (built_.insert(cid).second) return crypto::SealContext{it->second};
  return crypto::SealContext::reuse(it->second);
}

bool ClusterKeySet::replace(ClusterId cid, const crypto::Key128& key) {
  const auto it = keys_.find(cid);
  if (it == keys_.end()) return false;
  if (it->second != key) built_.erase(cid);
  it->second = key;
  return true;
}

bool ClusterKeySet::revoke(ClusterId cid) {
  if (cid == own_cid_) own_cid_ = kNoCluster;
  built_.erase(cid);
  return keys_.erase(cid) > 0;
}

void ClusterKeySet::hash_refresh_all() {
  for (auto& [cid, key] : keys_) crypto::one_way_inplace(key);
  built_.clear();
}

}  // namespace ldke::core
