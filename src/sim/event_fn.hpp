#pragma once
/// \file event_fn.hpp
/// Move-only type-erased callable for scheduler events.  std::function's
/// small-buffer slot (16 bytes on common ABIs) is too small for the
/// simulator's typical event — one channel delivery per transmission,
/// capturing a Packet (shared payload ref) and its receiver list — so
/// every scheduled event would pay a heap allocation.  EventFn keeps a
/// 48-byte inline buffer, which fits all hot-path events; larger
/// captures fall back to the heap transparently.

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace ldke::sim {

class EventFn {
 public:
  /// Inline capture budget: sized for the fattest hot-path event (a
  /// channel delivery: this + 16-byte Packet + 24-byte receiver vector =
  /// 48 bytes, static_asserted in net/channel.cpp).  48 keeps a
  /// scheduler Slot (EventFn + ops pointer + generation) at exactly one
  /// 64-byte cache line.
  static constexpr std::size_t kInlineBytes = 48;

  EventFn() = default;
  EventFn(std::nullptr_t) {}

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& fn) {  // NOLINT(google-explicit-constructor): drop-in for
                     // std::function at every schedule() call site
    using Fn = std::decay_t<F>;
    if constexpr (fits_inline<Fn>()) {
      ::new (storage()) Fn(std::forward<F>(fn));
      ops_ = &kInlineOps<Fn>;
    } else {
      *static_cast<Fn**>(storage()) = new Fn(std::forward<F>(fn));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventFn(EventFn&& other) noexcept { move_from(std::move(other)); }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(std::move(other));
    }
    return *this;
  }

  EventFn& operator=(std::nullptr_t) noexcept {
    reset();
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  void operator()() { ops_->invoke(storage()); }

  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage());
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void*);
    /// Move-constructs dst's storage from src's and destroys src's.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*) &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* p) { (*std::launder(static_cast<Fn*>(p)))(); },
      [](void* dst, void* src) noexcept {
        Fn* from = std::launder(static_cast<Fn*>(src));
        ::new (dst) Fn(std::move(*from));
        from->~Fn();
      },
      [](void* p) noexcept { std::launder(static_cast<Fn*>(p))->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* p) { (**static_cast<Fn**>(p))(); },
      [](void* dst, void* src) noexcept {
        *static_cast<Fn**>(dst) = *static_cast<Fn**>(src);
      },
      [](void* p) noexcept { delete *static_cast<Fn**>(p); },
  };

  void move_from(EventFn&& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(storage(), other.storage());
      other.ops_ = nullptr;
    }
  }

  [[nodiscard]] void* storage() noexcept { return buf_; }

  // Pointer alignment, not max_align_t: captures are pointers, ids and
  // Packets, and 8-byte alignment keeps sizeof(EventFn) at 56 so a
  // scheduler Slot stays within one cache line.  Over-aligned captures
  // fall back to the heap via fits_inline().
  alignas(void*) std::byte buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace ldke::sim
