#include "net/payload_arena.hpp"

#include <algorithm>
#include <new>

namespace ldke::net {

PayloadArena::~PayloadArena() {
  for (Chunk& chunk : chunks_) release_chunk(chunk);
  for (Chunk& chunk : retired_) release_chunk(chunk);
  for (Chunk& chunk : free_chunks_) release_chunk(chunk);
}

PayloadArena::Chunk PayloadArena::new_chunk(std::size_t capacity) {
  void* raw = ::operator new(sizeof(detail::PayloadOwner) + capacity);
  Chunk chunk;
  // The arena's own reference; dropped when the chunk is released.
  chunk.owner = ::new (raw) detail::PayloadOwner{{1}};
  chunk.capacity = capacity;
  return chunk;
}

void PayloadArena::release_chunk(Chunk& chunk) noexcept {
  // Drop the arena's reference; the last outstanding PayloadRef (or this
  // call, if none remain) frees the allocation.
  if (chunk.owner->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    ::operator delete(chunk.owner);
  }
  chunk.owner = nullptr;
}

detail::PayloadBlock* PayloadArena::allocate(std::size_t n) {
  const std::size_t need = sizeof(detail::PayloadBlock) + ((n + 7) & ~std::size_t{7});
  if (chunks_.empty() || chunks_.back().used + need > chunks_.back().capacity) {
    if (!free_chunks_.empty() && free_chunks_.back().capacity >= need) {
      chunks_.push_back(free_chunks_.back());
      free_chunks_.pop_back();
    } else {
      chunks_.push_back(new_chunk(std::max(need, chunk_bytes_)));
    }
  }
  Chunk& chunk = chunks_.back();
  auto* base = reinterpret_cast<std::byte*>(chunk.owner + 1) + chunk.used;
  auto* block = ::new (base) detail::PayloadBlock{
      chunk.owner, static_cast<std::uint32_t>(n)};
  chunk.used += need;
  chunk.owner->refs.fetch_add(1, std::memory_order_relaxed);
  ++blocks_allocated_;
  return block;
}

void PayloadArena::reset() noexcept {
  // Retired chunks go through the same triage as live ones: anything
  // still referenced is handed to its last PayloadRef.
  for (Chunk& chunk : retired_) chunks_.push_back(chunk);
  retired_.clear();
  for (Chunk& chunk : chunks_) {
    // refs == 1 means only the arena still references the chunk: every
    // payload carved from it has been destroyed, so it can be reused.
    if (chunk.owner->refs.load(std::memory_order_acquire) == 1) {
      chunk.used = 0;
      free_chunks_.push_back(chunk);
    } else {
      release_chunk(chunk);
    }
  }
  chunks_.clear();
}

void PayloadArena::advance_generation() noexcept {
  for (Chunk& chunk : chunks_) retired_.push_back(chunk);
  chunks_.clear();
  ++generation_;
  reclaim();
}

void PayloadArena::reclaim() noexcept {
  std::erase_if(retired_, [this](Chunk& chunk) {
    if (chunk.owner->refs.load(std::memory_order_acquire) != 1) {
      return false;  // in-flight payloads still pin it; sweep again later
    }
    chunk.used = 0;
    free_chunks_.push_back(chunk);
    return true;
  });
}

}  // namespace ldke::net
