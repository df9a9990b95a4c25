// Rank-local pooled buffer arena for message payloads.
//
// Same philosophy as tensor/Workspace: the exchange hot path must not pay
// a heap allocation per message, so wire buffers are recycled through a
// per-rank free list instead of being constructed fresh. A sender acquires
// a buffer, packs its frame, and moves it into the Message; the receiver
// consumes the frame in place (std::span views — no copy) and releases the
// vector back into ITS OWN rank's pool. Buffers therefore migrate between
// ranks with the traffic, which is safe because a pool is only ever
// touched by its owning rank's thread (no mutex; World::run's thread
// join orders cross-run access).
//
// acquire() takes a capacity hint so the steady state is deterministic:
// callers pass their worst-case frame size (the exchange uses
// header + quota * (id + payload high-water)), and after the first epoch
// every pooled buffer already holds that capacity — packing can never
// trigger a mid-epoch growth reallocation.
#pragma once

#include <cstddef>
#include <vector>

namespace dshuf::comm {

class BufferPool {
 public:
  BufferPool() = default;
  /// Frees the retained buffers and takes them out of the comm.pool.*
  /// gauges, which count live pools only.
  ~BufferPool();
  /// Moves hand the buffers over together with their gauge accounting.
  BufferPool(BufferPool&& other) noexcept;
  BufferPool& operator=(BufferPool&& other) noexcept;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// Pop a recycled buffer (or construct one on a miss), cleared to size 0
  /// with capacity >= `reserve_hint`.
  [[nodiscard]] std::vector<std::byte> acquire(std::size_t reserve_hint = 0);

  /// Return a buffer to the free list (capacity retained). Pools keep at
  /// most kMaxFree buffers; beyond that the buffer is simply freed.
  void release(std::vector<std::byte> buf);

  /// Prewarm: ensure at least `count` free buffers of capacity >= `bytes`
  /// so the very first exchange epoch is already allocation-free.
  void reserve(std::size_t count, std::size_t bytes);

  [[nodiscard]] std::size_t free_buffers() const { return free_.size(); }
  [[nodiscard]] std::size_t free_bytes() const;

 private:
  // Generous bound on retained buffers: the exchange holds ~M in flight
  // per rank; anything past this is a leak or a workload change, and
  // hoarding it would just pin memory.
  static constexpr std::size_t kMaxFree = 256;

  void drop_all();

  std::vector<std::vector<std::byte>> free_;
};

}  // namespace dshuf::comm
