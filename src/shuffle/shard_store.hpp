// Per-worker local sample store.
//
// Models the "predefined storage area" of Section III-A: the set of sample
// ids a worker currently holds, with capacity accounting against the
// paper's (1+Q) * N/M bound. During an exchange the store transiently
// holds both the not-yet-removed outgoing samples and the already-received
// incoming ones — that transient peak is exactly why PLS needs the
// (1+Q)-fold capacity, and the store records it so tests and benches can
// verify the bound.
//
// Removal is indexed: a pluggable io::SlotIndex maps each id to its first
// occurrence and, while the store holds it twice, to where the second
// copy sits. remove_id and remove_slot then cost O(1) for any id held at
// most twice — the only case a PLS exchange or shuffler creates (a
// self-round stages a copy of a held sample before the original is
// removed). Only removing an id held three or more times scans forward,
// O(n), for the copies the index does not track. The observable ids()
// sequence is bit-identical to the scan-based removal (first occurrence
// replaced by the last element).
// The backend follows the process-wide io::slot_index_kind() —
// open-addressing by default, or the learned piecewise-linear index under
// ScopedSlotIndex — and is (re)built lazily: handing out mutable_ids()
// invalidates it, so a steady-state epoch (shuffle, add quota, remove
// quota) costs one O(n) rebuild plus O(1) per operation and, once warmed,
// no allocation.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "io/slot_index.hpp"
#include "shuffle/types.hpp"

namespace dshuf::shuffle {

class ShardStore {
 public:
  ShardStore() = default;

  /// Initialise with the worker's initial shard; `capacity` of 0 means
  /// unlimited (global-shuffle workers are not capacity-checked).
  ShardStore(std::vector<SampleId> initial, std::size_t capacity);

  [[nodiscard]] std::size_t size() const { return ids_.size(); }
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] const std::vector<SampleId>& ids() const { return ids_; }
  /// Direct mutable access (the post-exchange local shuffle permutes the
  /// shard in place). Invalidates the removal index until its next use.
  std::vector<SampleId>& mutable_ids() {
    index_dirty_ = true;
    return ids_;
  }

  /// Stage a received sample (appends; counts toward occupancy).
  void add(SampleId id);
  /// Remove the sample at `slot` (swap-with-last; order holders beware).
  void remove_slot(std::size_t slot);
  /// Remove by value; the id must be present. Removes the FIRST occurrence
  /// (ids can transiently duplicate when a self-round stages a copy before
  /// the original is cleaned up), exactly like the linear scan it replaced.
  void remove_id(SampleId id);

  /// Highest occupancy observed since construction / reset_peak().
  [[nodiscard]] std::size_t peak_occupancy() const { return peak_; }
  void reset_peak() { peak_ = ids_.size(); }

  /// True if the store has ever exceeded its capacity (only possible when
  /// capacity enforcement is off).
  [[nodiscard]] bool over_capacity() const {
    return capacity_ != 0 && peak_ > capacity_;
  }

  /// Lifetime stats of the removal-index backend (zeroes before its
  /// first build) — lets benches compare probe lengths across backends.
  [[nodiscard]] io::SlotIndexStats index_stats() const {
    return index_ != nullptr ? index_->stats() : io::SlotIndexStats{};
  }

 private:
  void note_occupancy() {
    if (ids_.size() > peak_) peak_ = ids_.size();
    DSHUF_CHECK(capacity_ == 0 || ids_.size() <= capacity_,
                "shard store exceeded its capacity of "
                    << capacity_ << " (occupancy " << ids_.size() << ")");
  }

  void ensure_index();
  void index_add(SampleId id, std::size_t pos);
  /// Swap-with-last removal of ids_[j] with full index maintenance.
  void remove_at(std::size_t j);
  /// Re-index an id still held `count` >= 2 times whose copies all lie at
  /// or after `from`.
  void rescan(SampleId id, std::size_t from, std::uint32_t count);

  std::vector<SampleId> ids_;
  std::size_t capacity_ = 0;
  std::size_t peak_ = 0;

  // id -> (first occurrence << 32) | copy count and second position (see
  // shard_store.cpp), behind the pluggable backend. Null until the first
  // indexed removal needs it.
  std::unique_ptr<io::SlotIndex> index_;
  bool index_dirty_ = true;
};

/// The paper's PLS capacity bound: floor((1 + q) * shard) rounded up by the
/// exchange quota granularity, i.e. shard + quota.
std::size_t pls_capacity(std::size_t shard_size, double q);

}  // namespace dshuf::shuffle
