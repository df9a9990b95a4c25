#include "comm/buffer_pool.hpp"

#include <utility>

#include "obs/metrics.hpp"

namespace dshuf::comm {

BufferPool::~BufferPool() { drop_all(); }

BufferPool::BufferPool(BufferPool&& other) noexcept
    : free_(std::exchange(other.free_, {})) {}

BufferPool& BufferPool::operator=(BufferPool&& other) noexcept {
  if (this != &other) {
    drop_all();
    free_ = std::exchange(other.free_, {});
  }
  return *this;
}

void BufferPool::drop_all() {
  if (free_.empty()) return;
  DSHUF_GAUGE("comm.pool.buffers").sub(static_cast<std::int64_t>(free_.size()));
  DSHUF_GAUGE("comm.pool.bytes").sub(static_cast<std::int64_t>(free_bytes()));
  free_.clear();
}

std::vector<std::byte> BufferPool::acquire(std::size_t reserve_hint) {
  DSHUF_COUNTER("comm.pool.acquires").add();
  std::vector<std::byte> buf;
  if (!free_.empty()) {
    buf = std::move(free_.back());
    free_.pop_back();
    DSHUF_GAUGE("comm.pool.buffers").sub(1);
    DSHUF_GAUGE("comm.pool.bytes")
        .sub(static_cast<std::int64_t>(buf.capacity()));
  } else {
    DSHUF_COUNTER("comm.pool.misses").add();
  }
  buf.clear();
  if (buf.capacity() < reserve_hint) buf.reserve(reserve_hint);
  return buf;
}

void BufferPool::release(std::vector<std::byte> buf) {
  if (free_.size() >= kMaxFree) return;  // drop: bounded retention
  DSHUF_GAUGE("comm.pool.buffers").add(1);
  DSHUF_GAUGE("comm.pool.bytes")
      .add(static_cast<std::int64_t>(buf.capacity()));
  buf.clear();
  free_.push_back(std::move(buf));
}

void BufferPool::reserve(std::size_t count, std::size_t bytes) {
  for (auto& buf : free_) {
    if (buf.capacity() < bytes) {
      const std::size_t before = buf.capacity();
      buf.reserve(bytes);
      DSHUF_GAUGE("comm.pool.bytes")
          .add(static_cast<std::int64_t>(buf.capacity() - before));
    }
  }
  while (free_.size() < count && free_.size() < kMaxFree) {
    std::vector<std::byte> buf;
    buf.reserve(bytes);
    DSHUF_GAUGE("comm.pool.buffers").add(1);
    DSHUF_GAUGE("comm.pool.bytes")
        .add(static_cast<std::int64_t>(buf.capacity()));
    free_.push_back(std::move(buf));
  }
}

std::size_t BufferPool::free_bytes() const {
  std::size_t n = 0;
  for (const auto& buf : free_) n += buf.capacity();
  return n;
}

}  // namespace dshuf::comm
