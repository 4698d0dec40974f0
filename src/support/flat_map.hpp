#pragma once
/// \file flat_map.hpp
/// Cache-friendly sorted containers for small cardinalities.
///
/// Per-node protocol state (cluster keys, per-interest diffusion
/// entries, nonce windows) holds roughly
/// *density* entries — 8 to 20 — but was stored in `std::map` /
/// `std::unordered_map`, paying a heap node and two-plus cache misses
/// per entry.  At 100k nodes those per-entry nodes dominate the
/// footprint.  FlatMap/FlatSet store entries contiguously in a sorted
/// SmallVec with inline capacity, so the common case is zero heap
/// allocations and one cache line per lookup; insert is O(n) moves,
/// which is cheaper than a rebalance for n this small.
///
/// Iteration order is ascending by key — the same order `std::map`
/// gave — so swapping `std::map` for FlatMap is behavior-preserving
/// even where iteration order feeds protocol decisions.

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <stdexcept>
#include <type_traits>
#include <utility>

namespace ldke::support {

/// Vector with inline storage for the first \p N elements; spills to the
/// heap beyond that.  N = 0 is a plain heap vector (no inline buffer).
/// Requires T move-constructible and move-assignable.
template <typename T, std::size_t N>
class SmallVec {
 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVec() noexcept : data_(inline_data()), capacity_(N) {}

  SmallVec(const SmallVec& other) : SmallVec() {
    reserve(other.size_);
    std::uninitialized_copy(other.begin(), other.end(), data_);
    size_ = other.size_;
  }

  SmallVec(SmallVec&& other) noexcept : SmallVec() {
    if (other.on_heap()) {
      // Steal the heap buffer wholesale.
      data_ = other.data_;
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.data_ = other.inline_data();
      other.capacity_ = N;
      other.size_ = 0;
    } else {
      std::uninitialized_move(other.begin(), other.end(), data_);
      size_ = other.size_;
      other.destroy_all();
    }
  }

  SmallVec& operator=(const SmallVec& other) {
    if (this != &other) {
      destroy_all();
      reserve(other.size_);
      std::uninitialized_copy(other.begin(), other.end(), data_);
      size_ = other.size_;
    }
    return *this;
  }

  SmallVec& operator=(SmallVec&& other) noexcept {
    if (this != &other) {
      destroy_all();
      if (other.on_heap()) {
        release_heap();
        data_ = other.data_;
        capacity_ = other.capacity_;
        size_ = other.size_;
        other.data_ = other.inline_data();
        other.capacity_ = N;
        other.size_ = 0;
      } else {
        std::uninitialized_move(other.begin(), other.end(), data_);
        size_ = other.size_;
        other.destroy_all();
      }
    }
    return *this;
  }

  ~SmallVec() {
    destroy_all();
    release_heap();
  }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  [[nodiscard]] iterator begin() noexcept { return data_; }
  [[nodiscard]] iterator end() noexcept { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const noexcept { return data_; }
  [[nodiscard]] const_iterator end() const noexcept { return data_ + size_; }

  [[nodiscard]] T& operator[](std::size_t i) noexcept { return data_[i]; }
  [[nodiscard]] const T& operator[](std::size_t i) const noexcept {
    return data_[i];
  }
  [[nodiscard]] T& back() noexcept { return data_[size_ - 1]; }
  [[nodiscard]] const T& back() const noexcept { return data_[size_ - 1]; }

  void reserve(std::size_t want) {
    if (want <= capacity_) return;
    grow_to(want);
  }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) grow_to(size_ + 1);
    T* slot = data_ + size_;
    ::new (static_cast<void*>(slot)) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  void pop_back() noexcept {
    --size_;
    data_[size_].~T();
  }

  /// Inserts \p v before \p pos, shifting the tail right.  Returns an
  /// iterator to the inserted element (iterators are invalidated).
  template <typename U>
  iterator insert(const_iterator pos, U&& v) {
    const std::size_t idx = static_cast<std::size_t>(pos - data_);
    if (size_ == capacity_) grow_to(size_ + 1);
    if (idx == size_) {
      ::new (static_cast<void*>(data_ + size_)) T(std::forward<U>(v));
    } else {
      // Move-construct the new last element, shift the rest, assign.
      ::new (static_cast<void*>(data_ + size_)) T(std::move(data_[size_ - 1]));
      std::move_backward(data_ + idx, data_ + size_ - 1, data_ + size_);
      data_[idx] = T(std::forward<U>(v));
    }
    ++size_;
    return data_ + idx;
  }

  iterator erase(const_iterator pos) noexcept {
    const std::size_t idx = static_cast<std::size_t>(pos - data_);
    std::move(data_ + idx + 1, data_ + size_, data_ + idx);
    pop_back();
    return data_ + idx;
  }

  void clear() noexcept { destroy_all(); }

 private:
  // Inline buffer; empty when N == 0 so SmallVec<T, 0> carries no slack.
  struct Empty {};
  struct Buffer {
    alignas(T) std::byte raw[sizeof(T) * (N ? N : 1)];
  };
  using InlineStore = std::conditional_t<N == 0, Empty, Buffer>;

  [[nodiscard]] T* inline_data() noexcept {
    if constexpr (N == 0) {
      return nullptr;
    } else {
      return reinterpret_cast<T*>(inline_store_.raw);
    }
  }
  [[nodiscard]] bool on_heap() const noexcept { return capacity_ > N; }

  void grow_to(std::size_t want) {
    std::size_t cap = capacity_ ? capacity_ * 2 : 4;
    if (cap < want) cap = want;
    T* fresh = std::allocator<T>{}.allocate(cap);
    std::uninitialized_move(begin(), end(), fresh);
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    release_heap();
    data_ = fresh;
    capacity_ = cap;
  }

  void destroy_all() noexcept {
    for (std::size_t i = 0; i < size_; ++i) data_[i].~T();
    size_ = 0;
  }

  void release_heap() noexcept {
    if (on_heap()) {
      std::allocator<T>{}.deallocate(data_, capacity_);
      data_ = inline_data();
      capacity_ = N;
    }
  }

  T* data_;
  std::size_t size_ = 0;
  std::size_t capacity_;
  [[no_unique_address]] InlineStore inline_store_;
};

/// Sorted associative map over a SmallVec.  Drop-in for the subset of the
/// `std::map` interface the protocol uses; value_type is std::pair<K, V>
/// (not pair<const K, V>), which structured bindings handle identically.
template <typename K, typename V, std::size_t N>
class FlatMap {
 public:
  using value_type = std::pair<K, V>;
  using iterator = typename SmallVec<value_type, N>::iterator;
  using const_iterator = typename SmallVec<value_type, N>::const_iterator;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] bool empty() const noexcept { return entries_.empty(); }

  [[nodiscard]] iterator begin() noexcept { return entries_.begin(); }
  [[nodiscard]] iterator end() noexcept { return entries_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept {
    return entries_.begin();
  }
  [[nodiscard]] const_iterator end() const noexcept { return entries_.end(); }

  [[nodiscard]] iterator lower_bound(const K& key) noexcept {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }
  [[nodiscard]] const_iterator lower_bound(const K& key) const noexcept {
    return std::lower_bound(
        entries_.begin(), entries_.end(), key,
        [](const value_type& e, const K& k) { return e.first < k; });
  }

  [[nodiscard]] iterator find(const K& key) noexcept {
    auto it = lower_bound(key);
    return (it != end() && it->first == key) ? it : end();
  }
  [[nodiscard]] const_iterator find(const K& key) const noexcept {
    auto it = lower_bound(key);
    return (it != end() && it->first == key) ? it : end();
  }
  [[nodiscard]] bool contains(const K& key) const noexcept {
    return find(key) != end();
  }
  [[nodiscard]] std::size_t count(const K& key) const noexcept {
    return contains(key) ? 1 : 0;
  }

  [[nodiscard]] V& at(const K& key) {
    auto it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at");
    return it->second;
  }
  [[nodiscard]] const V& at(const K& key) const {
    auto it = find(key);
    if (it == end()) throw std::out_of_range("FlatMap::at");
    return it->second;
  }

  /// Inserts a default-constructed value if absent (std::map semantics).
  V& operator[](const K& key) {
    return try_emplace(key).first->second;
  }

  /// Inserts {key, V(args...)} if absent; never overwrites.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    auto it = lower_bound(key);
    if (it != end() && it->first == key) return {it, false};
    it = entries_.insert(it, value_type(std::piecewise_construct,
                                        std::forward_as_tuple(key),
                                        std::forward_as_tuple(
                                            std::forward<Args>(args)...)));
    return {it, true};
  }

  /// Inserts or overwrites.
  template <typename U>
  iterator insert_or_assign(const K& key, U&& value) {
    auto it = lower_bound(key);
    if (it != end() && it->first == key) {
      it->second = std::forward<U>(value);
      return it;
    }
    return entries_.insert(it, value_type(key, std::forward<U>(value)));
  }

  std::size_t erase(const K& key) noexcept {
    auto it = find(key);
    if (it == end()) return 0;
    entries_.erase(it);
    return 1;
  }
  iterator erase(const_iterator pos) noexcept { return entries_.erase(pos); }

  void clear() noexcept { entries_.clear(); }
  void reserve(std::size_t n) { entries_.reserve(n); }

 private:
  SmallVec<value_type, N> entries_;  // sorted ascending by .first
};

/// Sorted set over a SmallVec; same rationale as FlatMap.
template <typename K, std::size_t N>
class FlatSet {
 public:
  using iterator = typename SmallVec<K, N>::iterator;
  using const_iterator = typename SmallVec<K, N>::const_iterator;

  [[nodiscard]] std::size_t size() const noexcept { return keys_.size(); }
  [[nodiscard]] bool empty() const noexcept { return keys_.empty(); }

  [[nodiscard]] iterator begin() noexcept { return keys_.begin(); }
  [[nodiscard]] iterator end() noexcept { return keys_.end(); }
  [[nodiscard]] const_iterator begin() const noexcept { return keys_.begin(); }
  [[nodiscard]] const_iterator end() const noexcept { return keys_.end(); }

  [[nodiscard]] bool contains(const K& key) const noexcept {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    return it != keys_.end() && *it == key;
  }
  [[nodiscard]] std::size_t count(const K& key) const noexcept {
    return contains(key) ? 1 : 0;
  }

  std::pair<iterator, bool> insert(const K& key) {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it != keys_.end() && *it == key) return {it, false};
    return {keys_.insert(it, key), true};
  }

  std::size_t erase(const K& key) noexcept {
    auto it = std::lower_bound(keys_.begin(), keys_.end(), key);
    if (it == keys_.end() || *it != key) return 0;
    keys_.erase(it);
    return 1;
  }

  void clear() noexcept { keys_.clear(); }
  void reserve(std::size_t n) { keys_.reserve(n); }

 private:
  SmallVec<K, N> keys_;  // sorted ascending
};

}  // namespace ldke::support
