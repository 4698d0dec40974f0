#pragma once
/// \file payload.hpp
/// Immutable, reference-counted packet payload.  A broadcast reaches
/// every radio neighbor, so the channel used to deep-copy the payload
/// once per receiver at delivery-scheduling time — at density 20 that is
/// 20 allocations per transmission before a single byte is decrypted.
/// PayloadRef freezes the bytes at send time; every scheduled delivery,
/// sniffer record and forwarded re-broadcast then captures a refcount
/// bump instead of a copy.
///
/// Layout: a PayloadRef is a single pointer to one heap block,
/// [atomic refcount | size | bytes], so header, length and data share
/// one cache line for short payloads.  The last release frees the block:
/// a payload's memory lasts exactly as long as the deliveries, sniffer
/// records and forwards that still hold it.  The count is atomic because
/// under the sharded kernel a halo delivery copies a payload on one
/// lane's thread and drops it on another's.  At 8 bytes a PayloadRef
/// keeps Packet at 16 bytes and channel-delivery captures inside
/// EventFn's inline budget.  Receivers get a read-only view; anything
/// that wants to mutate (fuzzers, forgery harnesses) materializes its
/// own buffer via to_bytes().

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <new>
#include <span>
#include <utility>

#include "support/hex.hpp"

namespace ldke::net {

class PayloadRef {
 public:
  PayloadRef() = default;

  /// Copies \p bytes once into a fresh shared block.
  PayloadRef(support::Bytes&& bytes) {  // NOLINT(google-explicit-constructor)
    if (!bytes.empty()) adopt(bytes.data(), bytes.size());
  }

  PayloadRef(const support::Bytes& bytes) {  // NOLINT(google-explicit-constructor)
    if (!bytes.empty()) adopt(bytes.data(), bytes.size());
  }

  /// Copies an arbitrary byte view once into a fresh shared block.
  [[nodiscard]] static PayloadRef copy_of(std::span<const std::uint8_t> data) {
    PayloadRef ref;
    if (!data.empty()) ref.adopt(data.data(), data.size());
    return ref;
  }

  // Copy/move of a PayloadRef itself is a refcount operation, never a
  // byte copy — that is the whole point.
  PayloadRef(const PayloadRef& other) noexcept : block_(other.block_) {
    retain();
  }
  PayloadRef(PayloadRef&& other) noexcept
      : block_(std::exchange(other.block_, nullptr)) {}
  PayloadRef& operator=(const PayloadRef& other) noexcept {
    if (this != &other) {
      release();
      block_ = other.block_;
      retain();
    }
    return *this;
  }
  PayloadRef& operator=(PayloadRef&& other) noexcept {
    if (this != &other) {
      release();
      block_ = std::exchange(other.block_, nullptr);
    }
    return *this;
  }
  ~PayloadRef() { release(); }

  [[nodiscard]] std::size_t size() const noexcept {
    return block_ ? block_->size : 0;
  }
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }
  [[nodiscard]] const std::uint8_t* data() const noexcept {
    return block_ ? block_->bytes() : nullptr;
  }
  [[nodiscard]] const std::uint8_t* begin() const noexcept { return data(); }
  [[nodiscard]] const std::uint8_t* end() const noexcept {
    return data() + size();
  }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const noexcept {
    return block_->bytes()[i];
  }

  /// Read-only view of the bytes (what the codec layer decodes from).
  [[nodiscard]] std::span<const std::uint8_t> view() const noexcept {
    return {data(), size()};
  }
  operator std::span<const std::uint8_t>() const noexcept {  // NOLINT
    return view();
  }

  /// Materializes a private mutable copy (attack harnesses, fuzzers).
  [[nodiscard]] support::Bytes to_bytes() const {
    return support::Bytes{begin(), end()};
  }

  /// True when both refs point at the same shared block (no copy was
  /// made between them) — the zero-copy assertion used by tests.
  [[nodiscard]] bool shares_buffer_with(const PayloadRef& other) const noexcept {
    return block_ == other.block_;
  }

  /// Content equality (bytes, not buffer identity).
  friend bool operator==(const PayloadRef& a, const PayloadRef& b) noexcept {
    if (a.block_ == b.block_) return true;
    const auto va = a.view();
    const auto vb = b.view();
    return va.size() == vb.size() &&
           std::equal(va.begin(), va.end(), vb.begin());
  }
  friend bool operator==(const PayloadRef& a,
                         const support::Bytes& b) noexcept {
    const auto va = a.view();
    return va.size() == b.size() && std::equal(va.begin(), va.end(), b.begin());
  }

  /// Process-wide count of shared blocks created (i.e. payload byte
  /// allocations).  The broadcast microbenchmark and channel tests use
  /// deltas of this to pin "O(1) allocations per transmission".
  [[nodiscard]] static std::uint64_t buffers_created() noexcept {
    return counts().created.load(std::memory_order_relaxed);
  }
  /// Process-wide count of blocks created and not yet freed: the
  /// payloads some ref still holds.
  [[nodiscard]] static std::uint64_t buffers_live() noexcept {
    return counts().live.load(std::memory_order_relaxed);
  }

 private:
  /// One payload's allocation; the bytes follow the header.
  struct Block {
    std::atomic<std::uint32_t> refs;
    std::uint32_t size;

    [[nodiscard]] const std::uint8_t* bytes() const noexcept {
      return reinterpret_cast<const std::uint8_t*>(this + 1);
    }
    [[nodiscard]] std::uint8_t* bytes() noexcept {
      return reinterpret_cast<std::uint8_t*>(this + 1);
    }
  };
  static_assert(sizeof(Block) == 8);

  struct Counts {
    std::atomic<std::uint64_t> created{0};
    std::atomic<std::uint64_t> live{0};
  };

  void adopt(const std::uint8_t* bytes, std::size_t n) {
    void* raw = ::operator new(sizeof(Block) + n);
    block_ = ::new (raw) Block{{1}, static_cast<std::uint32_t>(n)};
    std::memcpy(block_->bytes(), bytes, n);
    counts().created.fetch_add(1, std::memory_order_relaxed);
    counts().live.fetch_add(1, std::memory_order_relaxed);
  }

  void retain() const noexcept {
    if (block_) block_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  void release() noexcept {
    if (block_ == nullptr) return;
    if (block_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      counts().live.fetch_sub(1, std::memory_order_relaxed);
      ::operator delete(block_);
    }
    block_ = nullptr;
  }

  static Counts& counts() noexcept {
    static Counts counts;
    return counts;
  }

  Block* block_ = nullptr;
};

}  // namespace ldke::net
