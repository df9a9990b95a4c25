#include "io/mmap_store.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <mutex>

#include "obs/metrics.hpp"
#include "util/error.hpp"
#include "util/log.hpp"
#include "util/noalloc.hpp"

namespace dshuf::io {

namespace fs = std::filesystem;

namespace {

// Record header: [u32 enc][u32 id]. enc = 0 is the zero-filled
// end-of-segment sentinel, 0xFFFFFFFF a tombstone, len+1 a live record.
constexpr std::size_t kHeaderBytes = 8;
constexpr std::uint32_t kTombstone = 0xFFFFFFFFu;
constexpr std::uint32_t kMaxPayload = 0xFFFFFFFDu;

// Slot ref packing: (window position mod 2^24) << 40 | offset of the
// record header. A ref names a segment by its position in the store's
// window, not by its file's sequence number, so any file name replays to
// a distinct ref; the 24 position bits stay unambiguous while the window
// holds fewer than 2^24 segments, and 40 bits of offset cover a dedicated
// segment for a kMaxPayload payload.
constexpr unsigned kRefOffsetBits = 40;
constexpr std::uint64_t kRefOffsetMask =
    (std::uint64_t{1} << kRefOffsetBits) - 1;
constexpr std::size_t kRefPosMask =
    (std::size_t{1} << (64 - kRefOffsetBits)) - 1;
// Segment file names carry eight decimal digits of sequence number.
constexpr std::size_t kMaxSegmentSeq = 99'999'999;

std::uint64_t pack_ref(std::size_t pos, std::size_t off) {
  return (static_cast<std::uint64_t>(pos & kRefPosMask) << kRefOffsetBits) |
         static_cast<std::uint64_t>(off);
}
std::size_t ref_off(std::uint64_t ref) {
  return static_cast<std::size_t>(ref & kRefOffsetMask);
}

std::uint32_t load_u32(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}
void store_u32(std::byte* p, std::uint32_t v) { std::memcpy(p, &v, sizeof(v)); }

std::size_t page_round(std::size_t len) {
  static const std::size_t pg =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return (len + pg - 1) / pg * pg;
}

/// End the segment's log at `off` unless the header would not fit there
/// (replay stops short of the segment's end anyway). A reused file holds
/// stale records past its last new one; this keeps replay off them.
void terminate_log_at(std::byte* base, std::size_t map_len, std::size_t off) {
  if (off + kHeaderBytes <= map_len) std::memset(base + off, 0, kHeaderBytes);
}

std::string segment_name(std::size_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "seg%08zu.dshuf", seq);
  return buf;
}

/// Parse "seg<8 digits>.dshuf" -> seq; SIZE_MAX for foreign files.
std::size_t parse_segment_name(const std::string& name) {
  if (name.size() != 3 + 8 + 6 || name.rfind("seg", 0) != 0 ||
      name.compare(11, 6, ".dshuf") != 0) {
    return SIZE_MAX;
  }
  std::size_t seq = 0;
  for (std::size_t i = 3; i < 11; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return SIZE_MAX;
    seq = seq * 10 + static_cast<std::size_t>(c - '0');
  }
  return seq;
}

}  // namespace

MmapSampleStore::MmapSampleStore(MmapStoreConfig cfg) : cfg_(std::move(cfg)) {
  DSHUF_CHECK_GE(cfg_.segment_bytes, kHeaderBytes + 1,
                 "segment_bytes too small to hold a record");
  fs::create_directories(cfg_.dir);
  index_ = make_slot_index(cfg_.index_kind);
  std::lock_guard<RankedMutex> lk(mu_);
  // analyze:blocking-ok one-time directory walk + mmap replay at store open
  open_existing_locked();
  update_gauges_locked();
}

MmapSampleStore::MmapSampleStore(fs::path dir)
    : MmapSampleStore(MmapStoreConfig{.dir = std::move(dir)}) {}

MmapSampleStore::~MmapSampleStore() {
  std::lock_guard<RankedMutex> lk(mu_);
  for (auto& seg : segs_) {
    if (seg.base != nullptr) {
      ::munmap(seg.base, seg.map_len);
      seg.base = nullptr;
    }
  }
  // Spare files replay as empty; the directory keeps only segments in use.
  for (const auto& spare : spares_) {
    unmap_and_unlink(spare.base, spare.map_len, spare.seq);
  }
}

MmapSampleStore::Segment& MmapSampleStore::seg_of(std::uint64_t ref) {
  return segs_[((ref >> kRefOffsetBits) - first_pos_) & kRefPosMask];
}

const MmapSampleStore::Segment& MmapSampleStore::seg_of(
    std::uint64_t ref) const {
  return segs_[((ref >> kRefOffsetBits) - first_pos_) & kRefPosMask];
}

fs::path MmapSampleStore::segment_path(std::size_t seq) const {
  return cfg_.dir / segment_name(seq);
}

void MmapSampleStore::unmap_and_unlink(std::byte* base, std::size_t len,
                                       std::size_t seq) const {
  ::munmap(base, len);
  const fs::path path = segment_path(seq);
  // analyze:blocking-ok unlink of a dead segment file is rare + amortised
  std::error_code ec;
  fs::remove(path, ec);
  if (ec) {
    LOG_WARN << "mmap_store: cannot unlink " << path;
  }
}

void MmapSampleStore::open_existing_locked() {
  // Collect (seq, path) pairs; replay in sequence order so a later save of
  // the same id (or a tombstone) wins, exactly as it happened live.
  std::vector<std::pair<std::size_t, fs::path>> found;
  // analyze:blocking-ok one-time directory walk at store open
  for (const auto& entry : fs::directory_iterator(cfg_.dir)) {
    if (!entry.is_regular_file()) continue;
    const std::size_t seq = parse_segment_name(entry.path().filename());
    if (seq == SIZE_MAX) {
      LOG_WARN << "mmap_store: ignoring foreign file " << entry.path();
      continue;
    }
    found.emplace_back(seq, entry.path());
  }
  if (found.empty()) return;
  std::sort(found.begin(), found.end());
  DSHUF_CHECK_LE(found.size(), kRefPosMask,
                 "mmap_store: too many segment files in " << cfg_.dir);
  // Window positions 0..n-1 follow sequence order, whatever the gaps
  // between the numbers in the file names.
  segs_.resize(found.size());
  next_seq_ = found.back().first + 1;

  for (std::size_t pos = 0; pos < found.size(); ++pos) {
    const auto& [seq, path] = found[pos];
    // analyze:blocking-ok one-time mmap replay at store open
    const int fd = ::open(path.c_str(), O_RDWR);
    DSHUF_CHECK_GE(fd, 0, "mmap_store: cannot open " << path);
    struct stat st {};
    DSHUF_CHECK_EQ(::fstat(fd, &st), 0, "mmap_store: fstat " << path);
    const auto len = static_cast<std::size_t>(st.st_size);
    void* base =
        ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    DSHUF_CHECK(base != MAP_FAILED, "mmap_store: mmap " << path);
    Segment& seg = segs_[pos];
    seg.base = static_cast<std::byte*>(base);
    seg.map_len = len;
    seg.seq = seq;
    seg.sealed = true;  // reopened segments are never appended to

    // Replay records into the index (later records overwrite earlier).
    std::size_t off = 0;
    while (off + kHeaderBytes <= len) {
      const std::uint32_t enc = load_u32(seg.base + off);
      if (enc == 0) break;  // zero-filled tail
      const auto id =
          static_cast<data::SampleId>(load_u32(seg.base + off + 4));
      if (enc == kTombstone) {
        index_->erase(id);
        off += kHeaderBytes;
        continue;
      }
      const std::size_t plen = enc - 1;
      DSHUF_CHECK_LE(off + kHeaderBytes + plen, len,
                     "mmap_store: truncated record in " << path);
      index_->put(id, pack_ref(pos, off));
      off += kHeaderBytes + plen;
    }
    seg.bump = off;
  }

  // Per-segment live stats derive from the FINAL index state: dead space
  // left behind by replayed overwrites/tombstones is simply not counted,
  // so compaction sees it immediately.
  live_bytes_ = 0;
  index_->for_each([this](data::SampleId, std::uint64_t ref) {
    Segment& seg = seg_of(ref);
    const std::size_t plen = load_u32(seg.base + ref_off(ref)) - 1;
    seg.live_records += 1;
    seg.live_payload += plen;
    live_bytes_ += plen;
  });
  // Fully dead reopened segments can be freed right away: no reader can
  // hold a pin before the constructor returns, and nothing is quarantined.
  sweep_dead_locked();
}

MmapSampleStore::Segment& MmapSampleStore::new_segment_locked(
    std::size_t min_payload_bytes) {
  const std::size_t len = page_round(
      std::max(cfg_.segment_bytes, kHeaderBytes + min_payload_bytes));
  const std::size_t seq = next_seq_;
  const fs::path path = segment_path(seq);
  DSHUF_CHECK_LE(seq, kMaxSegmentSeq,
                 "mmap_store: segment sequence exhausted, cannot name "
                     << path);
  DSHUF_CHECK_LT(segs_.size(), kRefPosMask,
                 "mmap_store: too many segments in the window");

  Segment seg;
  seg.map_len = len;
  seg.seq = seq;
  if (!spares_.empty() && spares_.back().map_len == len) {
    // The spare's file already replays as empty; renaming it before the
    // first append keeps replay in sequence order. Its pages are resident
    // and writable, so appends take no faults.
    const fs::path old = segment_path(spares_.back().seq);
    DSHUF_CHECK_EQ(::rename(old.c_str(), path.c_str()), 0,
                   "mmap_store: cannot rename " << old << " to " << path);
    seg.base = spares_.back().base;
    spares_.pop_back();
    DSHUF_COUNTER("store.segments_recycled").add(1);
  } else {
    // analyze:blocking-ok segment creation is a rare, amortised event
    const int fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
    DSHUF_CHECK_GE(fd, 0, "mmap_store: cannot create " << path);
    DSHUF_CHECK_EQ(::ftruncate(fd, static_cast<off_t>(len)), 0,
                   "mmap_store: ftruncate " << path);
    void* base =
        ::mmap(nullptr, len, PROT_READ | PROT_WRITE, MAP_SHARED, fd, 0);
    ::close(fd);
    DSHUF_CHECK(base != MAP_FAILED, "mmap_store: mmap " << path);
    seg.base = static_cast<std::byte*>(base);
    DSHUF_COUNTER("store.segments_created").add(1);
  }
  next_seq_ = seq + 1;

  if (active_ != SIZE_MAX) seg_at(active_).sealed = true;
  // analyze:alloc-ok the window grows to the mapped segments' span once
  segs_.push_back(seg);
  active_ = end_pos() - 1;
  return segs_.back();
}

std::uint64_t MmapSampleStore::append_locked(
    data::SampleId id, std::span<const std::byte> payload) {
  DSHUF_CHECK_LE(payload.size(), kMaxPayload, "mmap_store: payload too large");
  const std::size_t need = kHeaderBytes + payload.size();
  if (active_ == SIZE_MAX ||
      seg_at(active_).bump + need > seg_at(active_).map_len) {
    new_segment_locked(payload.size());
  }
  Segment& seg = seg_at(active_);
  const std::size_t off = seg.bump;
  std::byte* rec = seg.base + off;
  store_u32(rec + 4, static_cast<std::uint32_t>(id));
  if (!payload.empty()) {
    std::memcpy(rec + kHeaderBytes, payload.data(), payload.size());
  }
  terminate_log_at(seg.base, seg.map_len, off + need);
  // Length goes last: a crash mid-append leaves enc == 0 and the partial
  // record reads as end-of-segment on replay.
  store_u32(rec, static_cast<std::uint32_t>(payload.size()) + 1);
  seg.bump += need;
  seg.live_records += 1;
  seg.live_payload += payload.size();
  return pack_ref(active_, off);
}

void MmapSampleStore::append_tombstone_locked(data::SampleId id) {
  if (active_ == SIZE_MAX ||
      seg_at(active_).bump + kHeaderBytes > seg_at(active_).map_len) {
    new_segment_locked(0);
  }
  Segment& act = seg_at(active_);
  std::byte* rec = act.base + act.bump;
  store_u32(rec + 4, static_cast<std::uint32_t>(id));
  terminate_log_at(act.base, act.map_len, act.bump + kHeaderBytes);
  store_u32(rec, kTombstone);
  act.bump += kHeaderBytes;
}

void MmapSampleStore::quarantine_locked(std::uint64_t ref, std::uint32_t len) {
  Segment& seg = seg_of(ref);
  seg.live_records -= 1;
  seg.live_payload -= len;
  seg.quarantined_records += 1;
  // analyze:alloc-ok quarantine FIFO reuses its buffer across reclaim waves
  quarantine_.push_back({ref, len, epoch_});
  quarantined_bytes_ += len;
}

void MmapSampleStore::save(data::SampleId id,
                           std::span<const std::byte> payload) {
  std::lock_guard<RankedMutex> lk(mu_);
  std::uint64_t old_ref = 0;
  const bool had = index_->find(id, old_ref);
  const std::size_t old_len =
      had ? load_u32(seg_of(old_ref).base + ref_off(old_ref)) - 1 : 0;
  if (cfg_.capacity_bytes != 0) {
    // Byte-exact (1+Q)*N/M bound on LIVE payload: an overwrite only
    // charges the delta, exactly like FileSampleStore's directory.
    DSHUF_CHECK_LE(live_bytes_ - old_len + payload.size(),
                   cfg_.capacity_bytes,
                   "mmap_store: save(" << id
                                       << ") exceeds capacity_bytes bound");
  }
  const std::uint64_t ref = append_locked(id, payload);
  index_->put(id, ref);
  if (had) quarantine_locked(old_ref, static_cast<std::uint32_t>(old_len));
  live_bytes_ += payload.size() - old_len;
  DSHUF_COUNTER("store.saves").add(1);
}

std::span<const std::byte> MmapSampleStore::payload_at(
    std::uint64_t ref) const {
  const std::byte* rec = seg_of(ref).base + ref_off(ref);
  const std::uint32_t enc = load_u32(rec);
  return {rec + kHeaderBytes, enc - 1};
}

MmapSampleStore::PinnedView MmapSampleStore::pin(data::SampleId id) const {
  std::unique_lock<RankedMutex> lk(mu_);
  std::uint64_t ref = 0;
  DSHUF_CHECK(index_->find(id, ref),
              "mmap_store: sample " << id << " not stored");
  const auto bytes = payload_at(ref);
  // Claim a pin slot while still holding the lock: reclaim (also under
  // the lock) either sees this pin or runs before the span was handed
  // out — either way it cannot free bytes a reader can still touch.
  for (std::size_t s = 0; s < kMaxPins; ++s) {
    std::uint64_t expected = 0;
    if (pins_[s].compare_exchange_strong(expected, epoch_,
                                         std::memory_order_acq_rel)) {
      DSHUF_COUNTER("store.reads").add(1);
      return PinnedView(this, s, bytes);
    }
  }
  DSHUF_CHECK(false, "mmap_store: more than " << kMaxPins
                                              << " concurrent pinned views");
  __builtin_unreachable();
}

MmapSampleStore::PinnedView::~PinnedView() {
  if (store_ != nullptr) {
    // Release ordering: every read of the span happens-before a reclaimer
    // observing the slot as free.
    store_->pins_[slot_].store(0, std::memory_order_release);
  }
}

DSHUF_NOALLOC void MmapSampleStore::read(data::SampleId id, ReadFn fn) const {
  PinnedView view = pin(id);
  // Lock dropped; the pin keeps the span stable, so fn may reenter the
  // store (e.g. the exchange deposit path saving into the same store).
  fn(view.bytes());
}

void MmapSampleStore::load_into(data::SampleId id,
                                std::vector<std::byte>& out) const {
  read(id, [&out](std::span<const std::byte> p) {
    out.insert(out.end(), p.begin(), p.end());
  });
}

void MmapSampleStore::remove(data::SampleId id) {
  std::lock_guard<RankedMutex> lk(mu_);
  std::uint64_t ref = 0;
  DSHUF_CHECK(index_->find(id, ref),
              "remove: sample " << id << " not stored");
  index_->erase(id);
  const std::uint32_t len = load_u32(seg_of(ref).base + ref_off(ref)) - 1;
  // The record's bytes stay untouched (a pinned reader may still be on
  // them); a tombstone appended to the active segment makes the removal
  // durable across reopen.
  append_tombstone_locked(id);
  quarantine_locked(ref, len);
  live_bytes_ -= len;
  DSHUF_COUNTER("store.removes").add(1);
}

bool MmapSampleStore::contains(data::SampleId id) const {
  std::lock_guard<RankedMutex> lk(mu_);
  std::uint64_t ref = 0;
  return index_->find(id, ref);
}

std::vector<data::SampleId> MmapSampleStore::list() const {
  std::lock_guard<RankedMutex> lk(mu_);
  std::vector<data::SampleId> ids;
  ids.reserve(index_->size());
  index_->for_each(
      [&ids](data::SampleId id, std::uint64_t) { ids.push_back(id); });
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::size_t MmapSampleStore::size() const {
  std::lock_guard<RankedMutex> lk(mu_);
  return index_->size();
}

std::size_t MmapSampleStore::disk_bytes() const {
  std::lock_guard<RankedMutex> lk(mu_);
  return live_bytes_;
}

std::uint64_t MmapSampleStore::min_pinned_locked() const {
  std::uint64_t min = UINT64_MAX;
  for (const auto& p : pins_) {
    const std::uint64_t e = p.load(std::memory_order_acquire);
    if (e != 0 && e < min) min = e;
  }
  return min;
}

void MmapSampleStore::free_segment_locked(std::size_t pos,
                                          std::size_t spare_cap) {
  // A tombstone in this segment may be the only thing masking an older
  // record for the same id in an earlier, still-retained segment file:
  // unlinking the file as-is would resurrect that record (or a stale
  // overwritten payload) on the next reopen/replay. Re-log such
  // tombstones into the active segment first. Ids the index still holds
  // need no mask — their latest record replays after anything it
  // shadows, so sequence order already wins; and with no earlier
  // retained segment there is nothing left to mask.
  bool earlier_retained = false;
  for (std::size_t p = first_pos_; p < pos; ++p) {
    if (seg_at(p).base != nullptr) {
      earlier_retained = true;
      break;
    }
  }
  if (earlier_retained) {
    // append_tombstone_locked may grow segs_; walk via stable copies.
    std::byte* const base = seg_at(pos).base;
    const std::size_t bump = seg_at(pos).bump;
    std::size_t off = 0;
    while (off + kHeaderBytes <= bump) {
      const std::uint32_t enc = load_u32(base + off);
      if (enc == 0) break;
      if (enc == kTombstone) {
        const auto id = static_cast<data::SampleId>(load_u32(base + off + 4));
        std::uint64_t cur = 0;
        if (!index_->find(id, cur)) append_tombstone_locked(id);
        off += kHeaderBytes;
      } else {
        off += kHeaderBytes + (enc - 1);
      }
    }
  }
  Segment& seg = seg_at(pos);  // re-fetched: the re-log may grow segs_
  if (seg.map_len == page_round(cfg_.segment_bytes) &&
      spares_.size() < spare_cap) {
    // Zeroing the first header, after the re-log above and before any
    // rename, makes the file replay as empty under its old name.
    terminate_log_at(seg.base, seg.map_len, 0);
    // analyze:alloc-ok spares are bounded by the segments holding live data
    spares_.push_back(seg);
  } else {
    unmap_and_unlink(seg.base, seg.map_len, seg.seq);
  }
  seg.base = nullptr;
  seg.map_len = 0;
  seg.bump = 0;
  if (active_ == pos) active_ = SIZE_MAX;
  DSHUF_COUNTER("store.segments_freed").add(1);
}

void MmapSampleStore::sweep_dead_locked() {
  // Spares number at most one more than the segments holding live
  // records: rewriting the live set takes as many segments again, plus one
  // where records straddle segment boundaries. A store whose live records
  // fit in one segment keeps none, so a small store's footprint never
  // doubles. A sweep frees only segments without live records, so the cap
  // holds throughout it.
  std::size_t live_segments = 0;
  for (const Segment& seg : segs_) {
    if (seg.live_records > 0) ++live_segments;
  }
  const std::size_t spare_cap = live_segments > 1 ? live_segments + 1 : 0;
  // Dead sealed segments: those whose last quarantined record retired, AND
  // tombstone-only segments (zero live, zero quarantined from birth) that
  // retirement never references — without them, remove-heavy workloads
  // leak mapped tombstone-only segments until process exit. No pin can
  // point into a candidate: pinning requires a live record at pin time,
  // and its later quarantine entry cannot retire while the pin is held.
  // Ascending order lets a later segment's tombstones drop once
  // everything they mask is unlinked. free_segment_locked may re-log
  // tombstones into a new active segment, which is not a candidate: probe
  // by position against a snapshot of the window's end.
  const std::size_t end = end_pos();
  for (std::size_t pos = first_pos_; pos < end; ++pos) {
    const Segment& seg = seg_at(pos);
    if (pos != active_ && seg.base != nullptr && seg.sealed &&
        seg.live_records == 0 && seg.quarantined_records == 0) {
      free_segment_locked(pos, spare_cap);
    }
  }
  while (spares_.size() > spare_cap) {
    unmap_and_unlink(spares_.back().base, spares_.back().map_len,
                     spares_.back().seq);
    spares_.pop_back();
  }
  // Segments die roughly oldest first: dropping the dead prefix keeps the
  // window, and every walk over it, as long as the mapped span.
  std::size_t dead = 0;
  while (dead < segs_.size() && segs_[dead].base == nullptr) ++dead;
  segs_.erase(segs_.begin(),
              segs_.begin() + static_cast<std::ptrdiff_t>(dead));
  first_pos_ += dead;
}

void MmapSampleStore::reclaim_locked() {
  const std::uint64_t min_pin = min_pinned_locked();
  std::size_t retired = 0;
  while (quarantine_head_ < quarantine_.size()) {
    const Quarantined& q = quarantine_[quarantine_head_];
    // A pin taken in epoch E can only hold spans live (or quarantined)
    // at E; retiring strictly-older quarantine entries is safe.
    if (q.retire_epoch >= min_pin) break;
    seg_of(q.ref).quarantined_records -= 1;
    quarantined_bytes_ -= q.len;
    ++quarantine_head_;
    ++retired;
  }
  if (quarantine_head_ == quarantine_.size()) {
    quarantine_.clear();
    quarantine_head_ = 0;
  }
  sweep_dead_locked();
  if (retired > 0) DSHUF_COUNTER("store.reclaims").add(retired);
}

void MmapSampleStore::compact_locked() {
  // Copy survivors of cold sealed segments into the active segment and
  // quarantine the originals: the same retire machinery then frees the
  // file once in-flight readers drain.
  const std::size_t end = end_pos();  // new segments are not candidates
  for (std::size_t pos = first_pos_; pos < end; ++pos) {
    Segment& seg = seg_at(pos);
    if (seg.base == nullptr || !seg.sealed || pos == active_) continue;
    if (seg.live_records == 0) continue;
    if (static_cast<double>(seg.live_payload) >=
        cfg_.compact_live_fraction * static_cast<double>(seg.bump)) {
      continue;
    }
    // append_locked below may grow segs_ and invalidate `seg`; the
    // mapping itself is stable, so walk via stable copies.
    std::byte* const base = seg.base;
    const std::size_t bump = seg.bump;
    std::size_t off = 0;
    while (off + kHeaderBytes <= bump) {
      const std::uint32_t enc = load_u32(base + off);
      if (enc == 0) break;
      if (enc == kTombstone) {
        off += kHeaderBytes;
        continue;
      }
      const std::size_t plen = enc - 1;
      const auto id = static_cast<data::SampleId>(load_u32(base + off + 4));
      std::uint64_t cur = 0;
      // Only records the index still points at are live; stale extents
      // (overwritten or removed) are already in quarantine.
      if (index_->find(id, cur) && cur == pack_ref(pos, off)) {
        const std::span<const std::byte> payload{base + off + kHeaderBytes,
                                                 plen};
        const std::uint64_t moved = append_locked(id, payload);
        index_->put(id, moved);
        quarantine_locked(pack_ref(pos, off),
                          static_cast<std::uint32_t>(plen));
      }
      off += kHeaderBytes + plen;
    }
    DSHUF_COUNTER("store.compactions").add(1);
  }
}

std::uint64_t MmapSampleStore::advance_epoch() {
  std::lock_guard<RankedMutex> lk(mu_);
  epoch_ += 1;
  reclaim_locked();
  compact_locked();
  update_gauges_locked();
  return epoch_;
}

void MmapSampleStore::reclaim() {
  std::lock_guard<RankedMutex> lk(mu_);
  reclaim_locked();
  update_gauges_locked();
}

void MmapSampleStore::update_gauges_locked() const {
  std::size_t resident = 0;
  std::size_t mapped = 0;
  for (const auto& seg : segs_) {
    if (seg.base != nullptr) {
      resident += seg.map_len;
      ++mapped;
    }
  }
  for (const auto& spare : spares_) resident += spare.map_len;
  DSHUF_GAUGE("store.resident_bytes").set(static_cast<std::int64_t>(resident));
  DSHUF_GAUGE("store.live_bytes").set(static_cast<std::int64_t>(live_bytes_));
  DSHUF_GAUGE("store.quarantine_bytes")
      .set(static_cast<std::int64_t>(quarantined_bytes_));
  DSHUF_GAUGE("store.segments").set(static_cast<std::int64_t>(mapped));
  const std::uint64_t lag =
      quarantine_head_ < quarantine_.size()
          ? epoch_ - quarantine_[quarantine_head_].retire_epoch
          : 0;
  DSHUF_GAUGE("store.reclaim_lag_epochs").set(static_cast<std::int64_t>(lag));
}

std::size_t MmapSampleStore::resident_bytes() const {
  std::lock_guard<RankedMutex> lk(mu_);
  std::size_t total = 0;
  for (const auto& seg : segs_) {
    if (seg.base != nullptr) total += seg.map_len;
  }
  for (const auto& spare : spares_) total += spare.map_len;
  return total;
}

std::size_t MmapSampleStore::quarantined_bytes() const {
  std::lock_guard<RankedMutex> lk(mu_);
  return quarantined_bytes_;
}

std::uint64_t MmapSampleStore::epoch() const {
  std::lock_guard<RankedMutex> lk(mu_);
  return epoch_;
}

std::uint64_t MmapSampleStore::reclaim_lag() const {
  std::lock_guard<RankedMutex> lk(mu_);
  return quarantine_head_ < quarantine_.size()
             ? epoch_ - quarantine_[quarantine_head_].retire_epoch
             : 0;
}

std::size_t MmapSampleStore::segment_count() const {
  std::lock_guard<RankedMutex> lk(mu_);
  std::size_t n = 0;
  for (const auto& seg : segs_) {
    if (seg.base != nullptr) ++n;
  }
  return n;
}

SlotIndexStats MmapSampleStore::index_stats() const {
  std::lock_guard<RankedMutex> lk(mu_);
  return index_->stats();
}

}  // namespace dshuf::io
