#include "shuffle/shard_store.hpp"

#include "shuffle/exchange_plan.hpp"

namespace dshuf::shuffle {

namespace {

// The index maps id -> (first occurrence << 32) | tail, where the tail
// counts the copies and, for two, says where the second one sits:
//   0               held once, at `first`;
//   second + 1      held twice, at `first` and at `second` > first;
//   kMany | count   held count >= 3 times (a removal rescans for them).
constexpr std::uint32_t kMany = std::uint32_t{1} << 31;

std::uint64_t pack_entry(std::size_t first, std::uint32_t tail) {
  return (static_cast<std::uint64_t>(first) << 32) | tail;
}
std::size_t entry_first(std::uint64_t v) {
  return static_cast<std::size_t>(v >> 32);
}
std::uint32_t entry_tail(std::uint64_t v) {
  return static_cast<std::uint32_t>(v);
}
std::uint32_t held_twice_at(std::size_t second) {
  return static_cast<std::uint32_t>(second + 1);
}

}  // namespace

ShardStore::ShardStore(std::vector<SampleId> initial, std::size_t capacity)
    : ids_(std::move(initial)), capacity_(capacity), peak_(ids_.size()) {
  DSHUF_CHECK(capacity_ == 0 || ids_.size() <= capacity_,
              "initial shard exceeds capacity");
}

void ShardStore::add(SampleId id) {
  ids_.push_back(id);
  if (!index_dirty_) index_add(id, ids_.size() - 1);
  note_occupancy();
}

void ShardStore::remove_slot(std::size_t slot) {
  DSHUF_CHECK_LT(slot, ids_.size(), "remove_slot out of range");
  ensure_index();
  remove_at(slot);
}

void ShardStore::remove_id(SampleId id) {
  ensure_index();
  std::uint64_t v = 0;
  DSHUF_CHECK(index_->find(id, v), "remove_id: sample " << id << " not held");
  remove_at(entry_first(v));
}

void ShardStore::index_add(SampleId id, std::size_t pos) {
  DSHUF_CHECK_LT(pos, std::size_t{kMany} - 1,
                 "shard too large for the removal index");
  std::uint64_t v = 0;
  if (!index_->find(id, v)) {
    index_->put(id, pack_entry(pos, 0));
    return;
  }
  // `pos` lies past every copy indexed so far, so `first` is unchanged.
  const std::uint32_t tail = entry_tail(v);
  std::uint32_t next = 0;
  if (tail == 0) {
    next = held_twice_at(pos);
  } else if ((tail & kMany) == 0) {
    next = kMany | 3U;
  } else {
    next = tail + 1;
  }
  index_->put(id, pack_entry(entry_first(v), next));
}

void ShardStore::remove_at(std::size_t j) {
  const SampleId id = ids_[j];
  const std::size_t last_idx = ids_.size() - 1;
  const SampleId last = ids_[last_idx];

  std::uint64_t v = 0;
  DSHUF_CHECK(index_->find(id, v), "removal index lost sample " << id);
  const std::size_t first = entry_first(v);
  const std::uint32_t tail = entry_tail(v);

  // Identical observable mutation to the scan-based removal: overwrite the
  // removed slot with the last element, shrink by one.
  ids_[j] = last;
  ids_.pop_back();

  if (tail == 0) {
    index_->erase(id);
  } else if ((tail & kMany) == 0) {
    // Held twice: one copy remains, the one not at j — and if that one
    // was the last element, it now sits at j.
    std::size_t other = j == first ? tail - 1 : first;
    if (other == last_idx) other = j;
    index_->put(id, pack_entry(other, 0));
  } else {
    // Held three or more times: copies other than the first are not
    // tracked, so find the new first (and, down to two, the second) by a
    // forward scan. Copies lie at or after `first`, or at j when j was
    // the first and the moved last element is a copy.
    rescan(id, j == first ? j : first, (tail & ~kMany) - 1);
  }

  if (j != last_idx && last != id) {
    // The copy of `last` that lived at last_idx now lives at j. last_idx
    // was its only copy, or its second of two, or one of several (where
    // it only matters if j now precedes the first).
    std::uint64_t lv = 0;
    DSHUF_CHECK(index_->find(last, lv), "removal index lost sample " << last);
    const std::size_t lfirst = entry_first(lv);
    const std::uint32_t ltail = entry_tail(lv);
    if (ltail == 0) {
      index_->put(last, pack_entry(j, 0));
    } else if ((ltail & kMany) == 0) {
      index_->put(last, j < lfirst ? pack_entry(j, held_twice_at(lfirst))
                                   : pack_entry(lfirst, held_twice_at(j)));
    } else if (j < lfirst) {
      index_->put(last, pack_entry(j, ltail));
    }
  }
}

void ShardStore::rescan(SampleId id, std::size_t from, std::uint32_t count) {
  auto next_copy = [this, id](std::size_t k) {
    while (k < ids_.size() && ids_[k] != id) ++k;
    DSHUF_CHECK_LT(k, ids_.size(), "removal index count out of sync");
    return k;
  };
  const std::size_t first = next_copy(from);
  index_->put(id, count > 2 ? pack_entry(first, kMany | count)
                            : pack_entry(first,
                                         held_twice_at(next_copy(first + 1))));
}

void ShardStore::ensure_index() {
  // A ScopedSlotIndex switch takes effect at the next lazy rebuild: the
  // backend is replaced, not mutated mid-schedule.
  const io::SlotIndexKind want = io::slot_index_kind();
  if (index_ == nullptr || index_->kind() != want) {
    index_ = io::make_slot_index(want);
    index_dirty_ = true;
  }
  if (!index_dirty_) return;
  // Steady state: clear() retains backend capacity — no allocation.
  index_->clear();
  index_dirty_ = false;
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    // Ascending i, so the first insert of each id records its first
    // occurrence and the next its second.
    index_add(ids_[i], i);
  }
}

std::size_t pls_capacity(std::size_t shard_size, double q) {
  return shard_size + exchange_quota(shard_size, q);
}

}  // namespace dshuf::shuffle
