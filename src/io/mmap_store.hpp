// Segment-based, mmap-backed sample payload store.
//
// FileSampleStore pays one file (metadata round trip, open/read/close)
// per sample — fine at thousands of samples per rank, hopeless at the
// paper's million-sample shards. MmapSampleStore amortises that cost
// over fixed-size SEGMENT files: payloads are append-allocated into the
// current segment's mapping, the id -> slot map is a pluggable
// io::SlotIndex (open-addressing or learned, ScopedSlotIndex-selectable),
// and a read hands out a std::span pointing STRAIGHT INTO the mapped
// segment — zero copies between page cache and the exchange's wire frame
// or the batch tensor.
//
// Because reads escape the store lock (that is the point: packing a wire
// frame from the span must not serialise against deposits), removal
// cannot free bytes immediately. The store uses EPOCH-BASED RECLAMATION
// (cf. mx/memory/reclamation/epoch_manager.h in the mxtasking exemplar):
//
//   * every read pins the store's current epoch for the duration of the
//     span's lifetime (RAII PinnedView / the read() callback);
//   * remove/overwrite QUARANTINES the old slot, tagged with the current
//     epoch — the bytes stay mapped and untouched;
//   * advance_epoch() bumps the epoch and retires every quarantined slot
//     whose tag is strictly below the minimum pinned epoch: no reader
//     that could still hold the span survives, so the bytes are dead;
//   * a sealed segment whose records have all died (including segments
//     holding only tombstones) is freed. A nominal-size one is kept
//     mapped as a SPARE while spares number at most one more than the
//     segments holding live records (none while those fit in one
//     segment): its first record header is zeroed so the file replays as
//     empty, and a later rollover renames it to the next sequence number
//     and appends into its resident pages — no open, ftruncate, mmap or
//     page faults. Any other dead segment is unmapped and its file
//     deleted;
//   * a sealed segment whose live fraction drops under the compaction
//     threshold has its survivors copied to the active segment (index
//     re-pointed, old extents quarantined) so the file can be freed on a
//     later epoch;
//   * before a segment is freed, any tombstone it holds for an id
//     still absent from the index is RE-LOGGED into the active segment
//     while an earlier segment file survives on disk — otherwise the next
//     reopen would replay the earlier segment's record unmasked and
//     resurrect a removed sample.
//
// On-disk format (per segment file, replayed on reopen in segment order):
//   record   := [u32 enc][u32 id][payload]
//   enc      := 0            end of segment (zero-filled tail)
//             | 0xFFFFFFFF   tombstone for id (remove survives reopen)
//             | len + 1      live record of len payload bytes
// Every append writes a zero header right after its record (when it fits)
// before publishing the record's length word, so a reused file replays
// only its new records, never the stale bytes behind them.
//
// disk_bytes() reports LIVE payload bytes only — byte-identical to
// FileSampleStore over any schedule (the differential suite asserts it),
// so the paper's (1+Q)*N/M capacity bound is enforced byte-exactly via
// capacity_bytes. resident_bytes() additionally counts mapped framing,
// dead and quarantined space — the operational footprint.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "io/slot_index.hpp"
#include "io/storage.hpp"
#include "util/ranked_mutex.hpp"

namespace dshuf::io {

struct MmapStoreConfig {
  std::filesystem::path dir;
  /// Nominal segment file size; a single oversized payload gets a
  /// dedicated page-rounded segment of its own.
  std::size_t segment_bytes = std::size_t{4} << 20;
  /// Maximum LIVE payload bytes (0 = unlimited): the byte-exact
  /// (1+Q)*N/M bound. save() throws when an insert would exceed it.
  std::size_t capacity_bytes = 0;
  /// Sealed segments whose live payload fraction falls below this are
  /// compacted on advance_epoch().
  double compact_live_fraction = 0.25;
  /// Index backend; defaults to the process-wide ScopedSlotIndex choice
  /// at construction time.
  SlotIndexKind index_kind = slot_index_kind();
};

class MmapSampleStore final : public SampleStore {
 public:
  /// Opens (or creates) the store under cfg.dir; existing segment files
  /// are mapped and replayed, so a store survives process restarts.
  explicit MmapSampleStore(MmapStoreConfig cfg);
  explicit MmapSampleStore(std::filesystem::path dir);
  ~MmapSampleStore() override;
  MmapSampleStore(const MmapSampleStore&) = delete;
  MmapSampleStore& operator=(const MmapSampleStore&) = delete;

  // ------------------------------------------------------- SampleStore --
  void save(data::SampleId id, std::span<const std::byte> payload) override;
  void load_into(data::SampleId id,
                 std::vector<std::byte>& out) const override;
  /// Zero-copy read: `fn` runs WITHOUT the store lock, on a span into the
  /// mapped segment, under an epoch pin — concurrent save/remove/reclaim
  /// cannot invalidate it. Reentering the store from `fn` is allowed.
  void read(data::SampleId id, ReadFn fn) const override;
  void remove(data::SampleId id) override;
  [[nodiscard]] bool contains(data::SampleId id) const override;
  [[nodiscard]] std::vector<data::SampleId> list() const override;
  [[nodiscard]] std::size_t size() const override;
  [[nodiscard]] std::size_t disk_bytes() const override;

  // ------------------------------------------------------ epochs & GC --

  /// RAII pinned view: the span stays valid until destruction, whatever
  /// other threads save/remove/reclaim in the meantime.
  class PinnedView {
   public:
    PinnedView(PinnedView&& other) noexcept
        : store_(other.store_), slot_(other.slot_), bytes_(other.bytes_) {
      other.store_ = nullptr;
    }
    PinnedView& operator=(PinnedView&&) = delete;
    PinnedView(const PinnedView&) = delete;
    PinnedView& operator=(const PinnedView&) = delete;
    ~PinnedView();
    [[nodiscard]] std::span<const std::byte> bytes() const { return bytes_; }

   private:
    friend class MmapSampleStore;
    PinnedView(const MmapSampleStore* store, std::size_t slot,
               std::span<const std::byte> bytes)
        : store_(store), slot_(slot), bytes_(bytes) {}
    const MmapSampleStore* store_;
    std::size_t slot_;
    std::span<const std::byte> bytes_;
  };

  /// Pin the current epoch and return a stable view of `id`'s payload;
  /// throws if absent. At most kMaxPins views may be live at once.
  [[nodiscard]] PinnedView pin(data::SampleId id) const;

  /// Enter the next reclamation epoch, retire quarantined slots no
  /// in-flight reader can still see, free empty segments and compact
  /// cold ones. Call once per exchange epoch (after the epoch's pins
  /// have been dropped). Returns the new epoch number.
  std::uint64_t advance_epoch();

  /// Retire whatever is already safe without advancing the epoch.
  void reclaim();

  // ---------------------------------------------------- introspection --

  /// Bytes currently mapped (live + dead + quarantined + unused tail +
  /// spares) — the store's operational memory/disk footprint.
  [[nodiscard]] std::size_t resident_bytes() const;
  /// Payload bytes removed but not yet retired (reclaim backlog).
  [[nodiscard]] std::size_t quarantined_bytes() const;
  /// Current reclamation epoch (starts at 1).
  [[nodiscard]] std::uint64_t epoch() const;
  /// Epochs the oldest quarantined slot has been waiting (0 = none).
  [[nodiscard]] std::uint64_t reclaim_lag() const;
  /// Mapped segment files in use (spares excluded).
  [[nodiscard]] std::size_t segment_count() const;
  [[nodiscard]] SlotIndexKind index_kind() const { return cfg_.index_kind; }
  [[nodiscard]] SlotIndexStats index_stats() const;
  [[nodiscard]] const std::filesystem::path& dir() const { return cfg_.dir; }

  static constexpr std::size_t kMaxPins = 64;

 private:
  struct Segment {
    std::byte* base = nullptr;  // nullptr once freed
    std::size_t map_len = 0;
    std::size_t bump = 0;
    std::size_t live_records = 0;
    std::size_t live_payload = 0;
    std::size_t quarantined_records = 0;
    std::size_t seq = 0;  // number in the file name: replay order
    bool sealed = false;
  };
  struct Quarantined {
    std::uint64_t ref = 0;
    std::uint32_t len = 0;
    std::uint64_t retire_epoch = 0;
  };

  void open_existing_locked();
  /// Next segment: a spare renamed to the next sequence number when one of
  /// the wanted length exists, else a fresh file.
  Segment& new_segment_locked(std::size_t min_payload_bytes);
  /// Append a record; returns its packed ref. Lock held.
  std::uint64_t append_locked(data::SampleId id,
                              std::span<const std::byte> payload);
  /// Append a tombstone record for `id` to the active segment. Lock held.
  void append_tombstone_locked(data::SampleId id);
  void quarantine_locked(std::uint64_t ref, std::uint32_t len);
  void reclaim_locked();
  void compact_locked();
  /// Free every dead sealed segment, oldest first, then release spares
  /// over the cap and trim the window's dead prefix.
  void sweep_dead_locked();
  /// Free a dead segment: keep it as a spare while fewer than `spare_cap`
  /// are kept, else unmap and unlink it.
  void free_segment_locked(std::size_t pos, std::size_t spare_cap);
  void unmap_and_unlink(std::byte* base, std::size_t len,
                        std::size_t seq) const;
  void update_gauges_locked() const;
  [[nodiscard]] std::uint64_t min_pinned_locked() const;
  [[nodiscard]] std::span<const std::byte> payload_at(std::uint64_t ref) const;
  [[nodiscard]] Segment& seg_at(std::size_t pos) {
    return segs_[pos - first_pos_];
  }
  [[nodiscard]] Segment& seg_of(std::uint64_t ref);
  [[nodiscard]] const Segment& seg_of(std::uint64_t ref) const;
  [[nodiscard]] std::size_t end_pos() const {
    return first_pos_ + segs_.size();
  }
  [[nodiscard]] std::filesystem::path segment_path(std::size_t seq) const;

  MmapStoreConfig cfg_;
  /// The window of segments from the oldest mapped one to the newest:
  /// segs_[i] sits at window position first_pos_ + i. Refs name positions,
  /// not file sequence numbers, and the dead prefix is trimmed after every
  /// sweep, so bookkeeping follows the mapped segments rather than every
  /// segment ever written.
  std::vector<Segment> segs_;
  std::size_t first_pos_ = 0;
  std::size_t next_seq_ = 0;       // sequence number of the next file
  std::size_t active_ = SIZE_MAX;  // window position, SIZE_MAX = none
  /// Dead nominal-size segments kept mapped for reuse; each file's first
  /// header is zero, so it replays as empty under its old name.
  std::vector<Segment> spares_;
  std::unique_ptr<SlotIndex> index_;
  std::vector<Quarantined> quarantine_;  // FIFO; head_ is the pop cursor
  std::size_t quarantine_head_ = 0;
  std::size_t live_bytes_ = 0;
  std::size_t quarantined_bytes_ = 0;
  std::uint64_t epoch_ = 1;
  /// Pin slots: 0 = free, otherwise the pinned epoch. Claimed under mu_,
  /// released with a store-release so reclaim's acquire-scan sees the
  /// span's last read happen-before the free.
  mutable std::array<std::atomic<std::uint64_t>, kMaxPins> pins_{};
  mutable RankedMutex mu_{LockRank::kFileStore, "io.mmap_store"};
};

}  // namespace dshuf::io
