#pragma once
/// \file payload_arena.hpp
/// Per-trial bump arena for packet payload bytes.
///
/// Setup-phase HELLO/JOIN churn creates hundreds of thousands of short
/// payloads per trial; with each payload individually heap-allocated the
/// allocator becomes both the malloc hot spot and a fragmentation source
/// at 100k nodes.  The arena hands out payload blocks from large chunks
/// with a bump pointer.  Safety comes from reference counting at chunk
/// granularity: every PayloadRef carved from a chunk holds one reference
/// on the chunk's owner header, so `reset()` can only recycle a chunk
/// once no payload still points into it — a ref that outlives the trial
/// keeps just its own chunk alive, never dangles.
///
/// The arena is installed thread-locally via PayloadArena::Scope (the
/// ProtocolRunner does this around each phase); PayloadRef allocation
/// falls back to a private heap block when no arena is current, so unit
/// tests and harnesses that never touch a runner are unaffected.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace ldke::net {

namespace detail {

/// Refcounted allocation header.  For a standalone payload the owner
/// header, the block and the bytes share one allocation; for an arena
/// chunk the owner heads the chunk and every block inside it counts as
/// one reference.  When the count hits zero the whole allocation is
/// freed with `::operator delete(owner)`.
struct PayloadOwner {
  std::atomic<std::uint32_t> refs;
  std::uint32_t reserved = 0;  // pads to 8 so trailing blocks stay aligned
};
static_assert(sizeof(PayloadOwner) == 8);

/// One payload inside an owner's allocation; the bytes follow the block
/// header contiguously.
struct PayloadBlock {
  PayloadOwner* owner;
  std::uint32_t size;
  std::uint32_t reserved = 0;  // keeps the byte area 8-aligned

  [[nodiscard]] const std::uint8_t* bytes() const noexcept {
    return reinterpret_cast<const std::uint8_t*>(this + 1);
  }
  [[nodiscard]] std::uint8_t* bytes() noexcept {
    return reinterpret_cast<std::uint8_t*>(this + 1);
  }
};
static_assert(sizeof(PayloadBlock) % 8 == 0);

}  // namespace detail

class PayloadArena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 64 * 1024;

  explicit PayloadArena(std::size_t chunk_bytes = kDefaultChunkBytes)
      : chunk_bytes_(chunk_bytes) {}
  ~PayloadArena();

  PayloadArena(const PayloadArena&) = delete;
  PayloadArena& operator=(const PayloadArena&) = delete;

  /// Carves a block for \p n payload bytes out of the current chunk
  /// (bump pointer), opening a new chunk when full.  The returned block
  /// already carries the caller's reference on its chunk.
  detail::PayloadBlock* allocate(std::size_t n);

  /// Recycles every chunk that has no outstanding payload references;
  /// chunks still referenced are released to their last PayloadRef.
  /// Call between trials, never mid-trial.
  void reset() noexcept;

  /// Steady-state (mid-run) reclamation: retires every chunk — including
  /// the bump target — into the retired set and opens a new generation.
  /// Unlike reset(), chunks that still carry payload references stay
  /// *arena-owned*: each later advance_generation()/reclaim() sweeps the
  /// retired set again and recycles chunks whose last in-flight packet
  /// has since been delivered.  This bounds steady-state memory to the
  /// working set instead of growing with run length.
  void advance_generation() noexcept;

  /// Sweeps the retired set, recycling any chunk whose references have
  /// drained.  Called by advance_generation(); exposed for tests and
  /// end-of-run accounting.
  void reclaim() noexcept;

  [[nodiscard]] std::uint64_t generation() const noexcept {
    return generation_;
  }
  /// Retired chunks still pinned by in-flight payload references.
  [[nodiscard]] std::size_t retired_chunks() const noexcept {
    return retired_.size();
  }

  /// Chunks currently owned by the arena (live + retired + recycled).
  [[nodiscard]] std::size_t chunk_count() const noexcept {
    return chunks_.size() + retired_.size() + free_chunks_.size();
  }
  /// Payload blocks handed out since construction.
  [[nodiscard]] std::uint64_t blocks_allocated() const noexcept {
    return blocks_allocated_;
  }

  /// RAII installation as the thread's current arena.
  class Scope {
   public:
    explicit Scope(PayloadArena& arena) noexcept
        : prev_(current_) {
      current_ = &arena;
    }
    ~Scope() { current_ = prev_; }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    PayloadArena* prev_;
  };

  /// Arena PayloadRef allocations route through, or nullptr.
  [[nodiscard]] static PayloadArena* current() noexcept { return current_; }

 private:
  struct Chunk {
    detail::PayloadOwner* owner = nullptr;  // heads the chunk allocation
    std::size_t capacity = 0;               // usable bytes after the owner
    std::size_t used = 0;
  };

  Chunk new_chunk(std::size_t capacity);
  static void release_chunk(Chunk& chunk) noexcept;

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;       // chunks_.back() is the bump target
  std::vector<Chunk> retired_;      // prior generations, refs draining
  std::vector<Chunk> free_chunks_;  // recycled, ready for reuse
  std::uint64_t blocks_allocated_ = 0;
  std::uint64_t generation_ = 0;

  // Inline and constinit: every TU sees a constant-initialized variable
  // and touches it directly, with no TLS init wrapper for UBSan to flag.
  static constinit inline thread_local PayloadArena* current_ = nullptr;
};

}  // namespace ldke::net
