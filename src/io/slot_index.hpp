// Pluggable id -> slot index.
//
// Both sample stores need a map from SampleId to a 64-bit slot word (the
// mmap store packs segment+offset+length into it; ShardStore packs its
// removal bookkeeping). Two interchangeable backends sit behind this
// interface, selectable at runtime:
//
//   * kOpenAddressing — linear-probe hash table with tombstones, the
//     battle-tested default (ported from ShardStore's removal index).
//     O(1) expected per op; wiped in place on clear so steady-state
//     rebuilds allocate nothing.
//   * kLearned — a piecewise-linear learned index (AFLI/NFL-style,
//     ROADMAP item 4): sorted key/value arrays + greedy bounded-error
//     linear segments; a lookup predicts the position from the key and
//     finishes with a last-mile binary search over at most
//     2*kErrorBound+1 candidates. Inserts land in a sorted delta buffer
//     merged into the core on rebuild; erases tombstone the core.
//     Shines on the dense, sorted-ish id spaces shuffling produces; the
//     probe/lookup counters in stats() quantify it against the hash
//     table (BENCH_shard.json carries both arms).
//
// Backends are NOT internally synchronised: the owning store serialises
// access (both sample stores hold their lock across index calls).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataset.hpp"
#include "util/function_ref.hpp"

namespace dshuf::io {

enum class SlotIndexKind {
  kOpenAddressing,
  kLearned,
};

std::string to_string(SlotIndexKind kind);

/// Process-wide default backend for newly built indexes (stores consult it
/// when (re)building). Defaults to kOpenAddressing.
[[nodiscard]] SlotIndexKind slot_index_kind();
void set_slot_index_kind(SlotIndexKind kind);

/// RAII backend switch for tests/benches, mirroring ScopedKernelBackend.
class ScopedSlotIndex {
 public:
  explicit ScopedSlotIndex(SlotIndexKind kind) : prev_(slot_index_kind()) {
    set_slot_index_kind(kind);
  }
  ~ScopedSlotIndex() { set_slot_index_kind(prev_); }
  ScopedSlotIndex(const ScopedSlotIndex&) = delete;
  ScopedSlotIndex& operator=(const ScopedSlotIndex&) = delete;

 private:
  SlotIndexKind prev_;
};

/// Lifetime totals for one index instance (monotonic; survive clear()).
struct SlotIndexStats {
  std::uint64_t lookups = 0;  ///< find() calls
  std::uint64_t probes = 0;   ///< hash probes / last-mile search steps
  std::uint64_t rebuilds = 0; ///< rehashes (hash) / delta merges (learned)
};

class SlotIndex {
 public:
  virtual ~SlotIndex() = default;

  /// Insert or overwrite. Returns true when `id` was not present before.
  virtual bool put(data::SampleId id, std::uint64_t value) = 0;

  /// Look up `id`; on hit, writes the mapped word to `out`.
  [[nodiscard]] virtual bool find(data::SampleId id,
                                  std::uint64_t& out) const = 0;

  /// Remove `id`. Returns true when it was present.
  virtual bool erase(data::SampleId id) = 0;

  [[nodiscard]] virtual std::size_t size() const = 0;

  /// Drop every entry, retaining internal capacity where possible (the
  /// open-addressing table wipes in place; steady-state rebuild loops
  /// allocate nothing once warmed).
  virtual void clear() = 0;

  /// Visit every (id, value) pair; visiting order is unspecified and may
  /// differ between backends — callers needing determinism must sort.
  virtual void for_each(
      FunctionRef<void(data::SampleId, std::uint64_t)> fn) const = 0;

  [[nodiscard]] virtual SlotIndexKind kind() const = 0;
  [[nodiscard]] virtual SlotIndexStats stats() const = 0;
};

/// Build an index of the given backend.
std::unique_ptr<SlotIndex> make_slot_index(SlotIndexKind kind);
/// Build an index of the current process-wide default backend.
std::unique_ptr<SlotIndex> make_slot_index();

}  // namespace dshuf::io
