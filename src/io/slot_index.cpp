#include "io/slot_index.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

#include "util/error.hpp"
#include "util/noalloc.hpp"

namespace dshuf::io {

namespace {

std::atomic<SlotIndexKind> g_slot_index_kind{SlotIndexKind::kOpenAddressing};

// splitmix32 finaliser — cheap, well-mixed hash for dense or sparse ids.
std::uint32_t hash_id(data::SampleId id) {
  std::uint32_t x = id;
  x ^= x >> 16;
  x *= 0x7FEB352DU;
  x ^= x >> 15;
  x *= 0x846CA68BU;
  x ^= x >> 16;
  return x;
}

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 16;
  while (p < n) p *= 2;
  return p;
}

// ------------------------------------------------------- open addressing --

class OpenAddressingIndex final : public SlotIndex {
 public:
  bool put(data::SampleId id, std::uint64_t value) override {
    // Grow before probing so the 3/4 load bound (used + tombstones) holds;
    // rehashing also sweeps tombstones out.
    if (4 * (used_ + tombstones_ + 1) >= 3 * table_.size()) {
      rehash(2 * (used_ + 1));
    }
    const std::size_t mask = table_.size() - 1;
    std::size_t slot = hash_id(id) & mask;
    std::size_t insert_at = table_.size();  // first reusable tombstone
    while (table_[slot].state != kEmpty) {
      if (table_[slot].state == kUsed && table_[slot].id == id) {
        table_[slot].value = value;
        return false;
      }
      if (table_[slot].state == kTombstone && insert_at == table_.size()) {
        insert_at = slot;
      }
      slot = (slot + 1) & mask;
    }
    if (insert_at == table_.size()) {
      insert_at = slot;
    } else {
      --tombstones_;
    }
    table_[insert_at] = Entry{.value = value, .id = id, .state = kUsed};
    ++used_;
    return true;
  }

  DSHUF_NOALLOC bool find(data::SampleId id,
                          std::uint64_t& out) const override {
    ++stats_.lookups;
    if (table_.empty()) return false;
    const std::size_t mask = table_.size() - 1;
    std::size_t slot = hash_id(id) & mask;
    while (table_[slot].state != kEmpty) {
      ++stats_.probes;
      if (table_[slot].state == kUsed && table_[slot].id == id) {
        out = table_[slot].value;
        return true;
      }
      slot = (slot + 1) & mask;
    }
    return false;
  }

  bool erase(data::SampleId id) override {
    if (table_.empty()) return false;
    const std::size_t mask = table_.size() - 1;
    std::size_t slot = hash_id(id) & mask;
    while (table_[slot].state != kEmpty) {
      if (table_[slot].state == kUsed && table_[slot].id == id) {
        table_[slot].state = kTombstone;
        --used_;
        ++tombstones_;
        return true;
      }
      slot = (slot + 1) & mask;
    }
    return false;
  }

  [[nodiscard]] std::size_t size() const override { return used_; }

  void clear() override {
    // Steady state: same table, wiped in place — no allocation.
    std::fill(table_.begin(), table_.end(), Entry{});
    used_ = 0;
    tombstones_ = 0;
  }

  void for_each(
      FunctionRef<void(data::SampleId, std::uint64_t)> fn) const override {
    for (const Entry& e : table_) {
      if (e.state == kUsed) fn(e.id, e.value);
    }
  }

  [[nodiscard]] SlotIndexKind kind() const override {
    return SlotIndexKind::kOpenAddressing;
  }
  [[nodiscard]] SlotIndexStats stats() const override { return stats_; }

 private:
  // Widest field first, so the entry packs into 16 bytes.
  struct Entry {
    std::uint64_t value = 0;
    data::SampleId id = 0;
    std::uint8_t state = 0;
  };
  static_assert(sizeof(Entry) == 16, "an open-addressing slot is 16 bytes");
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kUsed = 1;
  static constexpr std::uint8_t kTombstone = 2;

  void rehash(std::size_t min_slots) {
    ++stats_.rebuilds;
    const std::size_t size = next_pow2(min_slots * 2);
    std::vector<Entry> old = std::move(table_);
    table_.assign(size, Entry{});
    used_ = 0;
    tombstones_ = 0;
    const std::size_t mask = table_.size() - 1;
    for (const Entry& e : old) {
      if (e.state != kUsed) continue;
      std::size_t slot = hash_id(e.id) & mask;
      while (table_[slot].state != kEmpty) slot = (slot + 1) & mask;
      table_[slot] = e;
      ++used_;
    }
  }

  std::vector<Entry> table_;
  std::size_t used_ = 0;
  std::size_t tombstones_ = 0;
  mutable SlotIndexStats stats_;
};

// --------------------------------------------------------- learned index --

// Piecewise-linear learned core + hash delta buffer (AFLI/NFL shape):
//
//   * core: keys/values sorted ascending, plus greedy linear segments fit
//     with a hard error bound — |predicted - actual| <= kErrorBound for
//     every core key, by construction. A lookup picks the segment by
//     binary search on its first key, predicts the position, and resolves
//     with a binary search over the 2*kErrorBound+1 candidate window.
//     Erases tombstone core entries in place.
//   * delta: fresh inserts land in an open-addressing buffer (O(1), no
//     sorted-shift cost); once the delta outgrows max(kDeltaMin, core/4)
//     — or tombstones dominate — it is sorted and merged into a rebuilt
//     core. The 25%-growth trigger keeps total merge work O(n) amortised
//     across n inserts.
class LearnedSlotIndex final : public SlotIndex {
 public:
  static constexpr std::size_t kErrorBound = 32;
  static constexpr std::size_t kDeltaMin = 64;

  bool put(data::SampleId id, std::uint64_t value) override {
    std::size_t pos = 0;
    if (core_pos(id, pos)) {
      vals_[pos] = value;
      if (dead_[pos]) {
        dead_[pos] = 0;
        --dead_count_;
        return true;
      }
      return false;
    }
    const bool fresh = delta_.put(id, value);
    maybe_rebuild();
    return fresh;
  }

  DSHUF_NOALLOC bool find(data::SampleId id,
                          std::uint64_t& out) const override {
    ++stats_.lookups;
    if (delta_.size() != 0) {
      std::uint64_t v = 0;
      if (delta_find(id, v)) {
        out = v;
        return true;
      }
    }
    std::size_t pos = 0;
    if (!core_find(id, pos)) return false;
    if (dead_[pos]) return false;
    out = vals_[pos];
    return true;
  }

  bool erase(data::SampleId id) override {
    if (delta_.erase(id)) return true;
    std::size_t pos = 0;
    if (!core_pos(id, pos) || dead_[pos]) return false;
    dead_[pos] = 1;
    ++dead_count_;
    maybe_rebuild();
    return true;
  }

  [[nodiscard]] std::size_t size() const override {
    return keys_.size() - dead_count_ + delta_.size();
  }

  void clear() override {
    keys_.clear();
    vals_.clear();
    dead_.clear();
    segs_.clear();
    delta_.clear();
    dead_count_ = 0;
  }

  void for_each(
      FunctionRef<void(data::SampleId, std::uint64_t)> fn) const override {
    for (std::size_t i = 0; i < keys_.size(); ++i) {
      if (!dead_[i]) fn(keys_[i], vals_[i]);
    }
    delta_.for_each(fn);
  }

  [[nodiscard]] SlotIndexKind kind() const override {
    return SlotIndexKind::kLearned;
  }
  [[nodiscard]] SlotIndexStats stats() const override {
    SlotIndexStats s = stats_;
    const SlotIndexStats d = delta_.stats();
    s.probes += d.probes;
    return s;
  }

  /// Linear segments currently modelling the core (tests inspect fit).
  [[nodiscard]] std::size_t segment_count() const { return segs_.size(); }

 private:
  struct Segment {
    data::SampleId first_key = 0;
    double slope = 0.0;
    std::uint32_t begin = 0;  // core position of first_key
    std::uint32_t end = 0;    // one past the last core position covered
  };

  /// Predicted core position of `id` within `seg`, clamped to its range.
  [[nodiscard]] std::size_t predict(const Segment& seg,
                                    data::SampleId id) const {
    const double raw =
        static_cast<double>(seg.begin) +
        seg.slope * (static_cast<double>(id) -
                     static_cast<double>(seg.first_key));
    const double lo = static_cast<double>(seg.begin);
    const double hi = static_cast<double>(seg.end - 1);
    return static_cast<std::size_t>(std::llround(std::clamp(raw, lo, hi)));
  }

  /// Bounded last-mile search: binary search the ±kErrorBound window
  /// around the model's prediction. Construction guarantees every core
  /// key lands inside its window, so there is no fallback scan — a miss
  /// here is a genuine absence.
  DSHUF_NOALLOC bool core_find(data::SampleId id, std::size_t& pos) const {
    if (segs_.empty() || id < segs_.front().first_key) return false;
    // Segment by binary search on first_key (few segments; counted as
    // model navigation, not last-mile probes).
    std::size_t lo = 0;
    std::size_t hi = segs_.size();
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (segs_[mid].first_key <= id) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    const Segment& seg = segs_[lo];
    const std::size_t pred = predict(seg, id);
    std::size_t wlo = seg.begin;
    if (pred - seg.begin > kErrorBound) wlo = pred - kErrorBound;
    std::size_t whi = std::min<std::size_t>(seg.end, pred + kErrorBound + 1);
    while (wlo < whi) {
      ++stats_.probes;
      const std::size_t mid = wlo + (whi - wlo) / 2;
      if (keys_[mid] == id) {
        pos = mid;
        return true;
      }
      if (keys_[mid] < id) {
        wlo = mid + 1;
      } else {
        whi = mid;
      }
    }
    return false;
  }

  /// core_find without the lookup/probe accounting (mutation paths).
  bool core_pos(data::SampleId id, std::size_t& pos) {
    return core_find(id, pos);
  }

  void maybe_rebuild() {
    const std::size_t core_live = keys_.size() - dead_count_;
    const std::size_t threshold = std::max(kDeltaMin, core_live / 4);
    if (delta_.size() > threshold || dead_count_ > core_live) rebuild();
  }

  void rebuild() {
    ++stats_.rebuilds;
    // Collect the delta, sort it, and merge with the live core.
    std::vector<std::pair<data::SampleId, std::uint64_t>> add;
    add.reserve(delta_.size());
    delta_.for_each([&](data::SampleId id, std::uint64_t v) {
      add.emplace_back(id, v);
    });
    std::sort(add.begin(), add.end());

    std::vector<data::SampleId> keys;
    std::vector<std::uint64_t> vals;
    keys.reserve(keys_.size() - dead_count_ + add.size());
    vals.reserve(keys.capacity());
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < keys_.size() || j < add.size()) {
      while (i < keys_.size() && dead_[i]) ++i;
      const bool take_core =
          i < keys_.size() &&
          (j >= add.size() || keys_[i] < add[j].first);
      if (take_core) {
        keys.push_back(keys_[i]);
        vals.push_back(vals_[i]);
        ++i;
      } else if (j < add.size()) {
        keys.push_back(add[j].first);
        vals.push_back(add[j].second);
        ++j;
      }
    }
    keys_ = std::move(keys);
    vals_ = std::move(vals);
    dead_.assign(keys_.size(), 0);
    dead_count_ = 0;
    delta_.clear();
    fit_segments();
  }

  /// Greedy bounded-error piecewise-linear fit over (key, position): a
  /// segment extends while some slope keeps every covered key's predicted
  /// position within ±kErrorBound of the truth (the feasible-slope
  /// interval stays non-empty).
  void fit_segments() {
    segs_.clear();
    const std::size_t n = keys_.size();
    std::size_t i = 0;
    while (i < n) {
      const double k0 = static_cast<double>(keys_[i]);
      double lo = -std::numeric_limits<double>::infinity();
      double hi = std::numeric_limits<double>::infinity();
      std::size_t j = i + 1;
      const auto eps = static_cast<double>(kErrorBound);
      while (j < n) {
        const double dk = static_cast<double>(keys_[j]) - k0;
        const double dp = static_cast<double>(j - i);
        const double nlo = std::max(lo, (dp - eps) / dk);
        const double nhi = std::min(hi, (dp + eps) / dk);
        if (nlo > nhi) break;
        lo = nlo;
        hi = nhi;
        ++j;
      }
      Segment seg;
      seg.first_key = keys_[i];
      seg.begin = static_cast<std::uint32_t>(i);
      seg.end = static_cast<std::uint32_t>(j);
      seg.slope = (j == i + 1) ? 0.0 : (lo + hi) / 2.0;
      segs_.push_back(seg);
      i = j;
    }
  }

  std::vector<data::SampleId> keys_;  // sorted, unique
  std::vector<std::uint64_t> vals_;
  std::vector<std::uint8_t> dead_;    // core tombstones
  std::vector<Segment> segs_;
  OpenAddressingIndex delta_;         // unmerged inserts
  std::size_t dead_count_ = 0;
  mutable SlotIndexStats stats_;

  DSHUF_NOALLOC bool delta_find(data::SampleId id, std::uint64_t& out) const {
    return delta_.find(id, out);
  }
};

}  // namespace

std::string to_string(SlotIndexKind kind) {
  switch (kind) {
    case SlotIndexKind::kOpenAddressing:
      return "open_addressing";
    case SlotIndexKind::kLearned:
      return "learned";
  }
  return "?";
}

SlotIndexKind slot_index_kind() {
  return g_slot_index_kind.load(std::memory_order_acquire);
}

void set_slot_index_kind(SlotIndexKind kind) {
  g_slot_index_kind.store(kind, std::memory_order_release);
}

std::unique_ptr<SlotIndex> make_slot_index(SlotIndexKind kind) {
  switch (kind) {
    case SlotIndexKind::kOpenAddressing:
      return std::make_unique<OpenAddressingIndex>();
    case SlotIndexKind::kLearned:
      return std::make_unique<LearnedSlotIndex>();
  }
  DSHUF_CHECK(false, "unknown SlotIndexKind");
  return nullptr;
}

std::unique_ptr<SlotIndex> make_slot_index() {
  return make_slot_index(slot_index_kind());
}

}  // namespace dshuf::io
