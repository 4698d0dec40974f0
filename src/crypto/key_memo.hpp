#pragma once
/// \file key_memo.hpp
/// Fixed-size memo of a pure function of one Key128, for the per-key
/// work every holder of a shared key would otherwise repeat (one_way in
/// prf.cpp, SealContext(const Key128&) in seal_context.cpp).  Internal to
/// ldke_crypto: each user keeps one instance per thread.
///
/// Two-way set associative with LRU replacement.  A hit needs the stored
/// key to equal the queried key byte for byte; the set index only
/// chooses where to look.  The index comes from the key's first eight
/// bytes, so keys that share them compete for the same two ways.
/// Capacity is fixed at 2 * kSets entries and nothing is allocated after
/// construction.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <optional>
#include <utility>

#include "crypto/key.hpp"

namespace ldke::crypto::detail {

template <typename Value, std::size_t kSets>
class KeyMemo {
  static_assert(kSets > 0 && (kSets & (kSets - 1)) == 0,
                "kSets must be a power of two");

 public:
  /// The value stored for exactly \p key, or nullptr.
  [[nodiscard]] const Value* find(const Key128& key) noexcept {
    Set& set = sets_[set_index(key)];
    for (std::uint8_t w = 0; w < 2; ++w) {
      const Way& way = set.ways[w];
      if (way.value && way.key == key) {
        set.victim = static_cast<std::uint8_t>(w ^ 1);
        return &*way.value;
      }
    }
    return nullptr;
  }

  /// Builds the value for \p key from \p args in the least recently used
  /// way of its set.
  template <typename... Args>
  const Value& emplace(const Key128& key, Args&&... args) noexcept {
    Set& set = sets_[set_index(key)];
    Way& way = set.ways[set.victim];
    set.victim ^= 1;
    way.key = key;
    way.value.emplace(std::forward<Args>(args)...);
    return *way.value;
  }

  [[nodiscard]] static std::size_t set_index(const Key128& key) noexcept {
    std::uint64_t head;
    std::memcpy(&head, key.bytes.data(), sizeof head);
    return static_cast<std::size_t>((head * 0x9e3779b97f4a7c15ull) >> 32) &
           (kSets - 1);
  }

 private:
  struct Way {
    Key128 key;
    std::optional<Value> value;
  };
  struct Set {
    std::array<Way, 2> ways{};
    std::uint8_t victim = 0;  ///< way the next emplace replaces
  };

  std::array<Set, kSets> sets_{};
};

}  // namespace ldke::crypto::detail
