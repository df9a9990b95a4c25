// Unit tests for the mmap-backed segment store (io/mmap_store.hpp):
// round-trips, segment rollover, the byte-exact capacity bound, epoch-
// based reclamation (pins block retirement; advance_epoch frees dead
// segments), compaction of cold segments, crash-style reopen/replay of
// the segment log, both slot-index backends, and a TSan storm of
// concurrent pinned readers against a mutating writer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <random>
#include <thread>
#include <vector>

#include "io/mmap_store.hpp"
#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dshuf::io {
namespace {

namespace fs = std::filesystem;

std::vector<std::byte> bytes_of(std::initializer_list<int> xs) {
  std::vector<std::byte> out;
  for (int x : xs) out.push_back(static_cast<std::byte>(x));
  return out;
}

/// Deterministic payload for an id: id-seeded length and contents, so a
/// differential check needs no side table.
std::vector<std::byte> payload_for(data::SampleId id, std::size_t min_len = 1,
                                   std::size_t max_len = 64) {
  std::mt19937 rng(id * 2654435761U + 1);
  const std::size_t len =
      min_len + rng() % (max_len - min_len + 1);
  std::vector<std::byte> p(len);
  for (auto& b : p) b = static_cast<std::byte>(rng() & 0xFF);
  return p;
}

std::uint64_t created_segments() {
  return obs::Registry::instance().counter("store.segments_created").value();
}
std::uint64_t recycled_segments() {
  return obs::Registry::instance().counter("store.segments_recycled").value();
}

std::size_t files_in(const fs::path& dir) {
  std::size_t n = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    n += e.is_regular_file() ? 1 : 0;
  }
  return n;
}

class MmapStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dshuf_mmap_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }
  fs::path dir_;
};

TEST_F(MmapStoreTest, RoundTripsPayloads) {
  MmapSampleStore store(dir_);
  const auto a = bytes_of({1, 2, 3, 4});
  const auto b = bytes_of({9});
  store.save(10, a);
  store.save(20, b);

  EXPECT_TRUE(store.contains(10));
  EXPECT_TRUE(store.contains(20));
  EXPECT_FALSE(store.contains(30));
  EXPECT_EQ(store.size(), 2U);
  EXPECT_EQ(store.disk_bytes(), a.size() + b.size());

  std::vector<std::byte> out;
  store.load_into(10, out);
  EXPECT_EQ(out, a);
  store.load_into(20, out);  // load_into APPENDS
  ASSERT_EQ(out.size(), a.size() + b.size());
  EXPECT_EQ(std::memcmp(out.data() + a.size(), b.data(), b.size()), 0);
}

TEST_F(MmapStoreTest, ReadHandsOutSpanWithoutLock) {
  MmapSampleStore store(dir_);
  const auto p = payload_for(5);
  store.save(5, p);
  bool called = false;
  store.read(5, [&](std::span<const std::byte> got) {
    called = true;
    ASSERT_EQ(got.size(), p.size());
    EXPECT_EQ(std::memcmp(got.data(), p.data(), p.size()), 0);
    // The callback runs without the store lock: reentering is legal.
    EXPECT_TRUE(store.contains(5));
  });
  EXPECT_TRUE(called);
}

TEST_F(MmapStoreTest, OverwriteReplacesAndAccountsBytes) {
  MmapSampleStore store(dir_);
  store.save(1, bytes_of({1, 1, 1, 1, 1}));
  store.save(1, bytes_of({2, 2}));
  EXPECT_EQ(store.size(), 1U);
  EXPECT_EQ(store.disk_bytes(), 2U);
  std::vector<std::byte> out;
  store.load_into(1, out);
  EXPECT_EQ(out, bytes_of({2, 2}));
  // The old extent sits in quarantine until the epoch advances.
  EXPECT_EQ(store.quarantined_bytes(), 5U);
  store.advance_epoch();
  EXPECT_EQ(store.quarantined_bytes(), 0U);
}

TEST_F(MmapStoreTest, RemoveThrowsWhenAbsentAndQuarantines) {
  MmapSampleStore store(dir_);
  store.save(7, bytes_of({1, 2, 3}));
  EXPECT_THROW(store.remove(8), CheckError);
  store.remove(7);
  EXPECT_FALSE(store.contains(7));
  EXPECT_EQ(store.disk_bytes(), 0U);
  EXPECT_EQ(store.quarantined_bytes(), 3U);
  EXPECT_THROW(store.remove(7), CheckError);
  std::vector<std::byte> out;
  EXPECT_THROW(store.load_into(7, out), CheckError);
}

TEST_F(MmapStoreTest, ListIsAscending) {
  MmapSampleStore store(dir_);
  for (data::SampleId id : {40U, 10U, 30U, 20U}) {
    store.save(id, payload_for(id));
  }
  store.remove(30);
  const auto ids = store.list();
  EXPECT_EQ(ids, (std::vector<data::SampleId>{10, 20, 40}));
}

TEST_F(MmapStoreTest, RollsOverIntoNewSegments) {
  MmapStoreConfig cfg;
  cfg.dir = dir_;
  cfg.segment_bytes = 4096;  // one page => frequent rollover
  MmapSampleStore store(cfg);
  for (data::SampleId id = 0; id < 500; ++id) {
    store.save(id, payload_for(id, 32, 64));
  }
  EXPECT_GE(store.segment_count(), 4U);
  for (data::SampleId id = 0; id < 500; ++id) {
    std::vector<std::byte> out;
    store.load_into(id, out);
    ASSERT_EQ(out, payload_for(id, 32, 64)) << "id " << id;
  }
}

TEST_F(MmapStoreTest, OversizedPayloadGetsDedicatedSegment) {
  MmapStoreConfig cfg;
  cfg.dir = dir_;
  cfg.segment_bytes = 4096;
  MmapSampleStore store(cfg);
  std::vector<std::byte> big(100'000, std::byte{0xAB});
  store.save(1, big);
  std::vector<std::byte> out;
  store.load_into(1, out);
  EXPECT_EQ(out, big);
  EXPECT_GE(store.resident_bytes(), big.size());
}

TEST_F(MmapStoreTest, CapacityBoundIsByteExact) {
  MmapStoreConfig cfg;
  cfg.dir = dir_;
  cfg.capacity_bytes = 10;
  MmapSampleStore store(cfg);
  store.save(1, bytes_of({1, 2, 3, 4, 5, 6}));      // 6 live
  store.save(2, bytes_of({1, 2, 3, 4}));            // 10 live == bound: ok
  EXPECT_THROW(store.save(3, bytes_of({1})), CheckError);  // 11 > 10
  // An overwrite charges only the delta...
  store.save(2, bytes_of({9, 9, 9, 9}));            // still 10
  EXPECT_THROW(store.save(2, bytes_of({9, 9, 9, 9, 9})), CheckError);
  // ...and removal frees budget immediately (live bytes, not reclaim).
  store.remove(1);
  store.save(3, bytes_of({1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(store.disk_bytes(), 10U);
}

TEST_F(MmapStoreTest, AdvanceEpochFreesFullyDeadSegments) {
  MmapStoreConfig cfg;
  cfg.dir = dir_;
  cfg.segment_bytes = 4096;
  MmapSampleStore store(cfg);
  for (data::SampleId id = 0; id < 300; ++id) {
    store.save(id, payload_for(id, 32, 64));
  }
  const std::size_t segs_before = store.segment_count();
  ASSERT_GE(segs_before, 3U);
  for (data::SampleId id = 0; id < 300; ++id) store.remove(id);
  EXPECT_EQ(store.disk_bytes(), 0U);
  EXPECT_GT(store.quarantined_bytes(), 0U);

  store.advance_epoch();
  EXPECT_EQ(store.quarantined_bytes(), 0U);
  // Every sealed segment died; at most the active one remains mapped.
  EXPECT_LE(store.segment_count(), 1U);
  // And the files are really gone from disk.
  std::size_t files = 0;
  for (const auto& e : fs::directory_iterator(dir_)) {
    files += e.is_regular_file() ? 1 : 0;
  }
  EXPECT_LE(files, 1U);
}

TEST_F(MmapStoreTest, PinnedViewBlocksReclaimUntilDropped) {
  MmapStoreConfig cfg;
  cfg.dir = dir_;
  cfg.segment_bytes = 4096;
  MmapSampleStore store(cfg);
  const auto p = payload_for(1, 64, 64);
  store.save(1, p);
  // Seal the first segment so it is a candidate for freeing.
  for (data::SampleId id = 2; id < 200; ++id) {
    store.save(id, payload_for(id, 64, 64));
  }

  {
    auto view = store.pin(1);
    store.remove(1);  // quarantined, not freed
    store.advance_epoch();
    store.advance_epoch();
    // The pin predates the removal epoch: the bytes must still be intact.
    ASSERT_EQ(view.bytes().size(), p.size());
    EXPECT_EQ(std::memcmp(view.bytes().data(), p.data(), p.size()), 0);
    EXPECT_GT(store.quarantined_bytes(), 0U);
    EXPECT_GE(store.reclaim_lag(), 1U);
  }
  // Pin dropped: the next advance retires it.
  store.advance_epoch();
  EXPECT_EQ(store.quarantined_bytes(), 0U);
  EXPECT_EQ(store.reclaim_lag(), 0U);
}

TEST_F(MmapStoreTest, CompactionRelocatesSurvivorsAndFreesColdSegments) {
  MmapStoreConfig cfg;
  cfg.dir = dir_;
  cfg.segment_bytes = 4096;
  MmapSampleStore store(cfg);
  for (data::SampleId id = 0; id < 400; ++id) {
    store.save(id, payload_for(id, 32, 48));
  }
  const std::size_t segs_full = store.segment_count();
  ASSERT_GE(segs_full, 4U);
  // Kill ~94% of samples: every sealed segment drops under the 25% live
  // fraction but keeps a few survivors, so freeing REQUIRES relocation.
  for (data::SampleId id = 0; id < 400; ++id) {
    if (id % 16 != 0) store.remove(id);
  }
  for (int i = 0; i < 4; ++i) store.advance_epoch();

  EXPECT_LT(store.segment_count(), segs_full);
  EXPECT_LT(store.resident_bytes(), segs_full * 4096);
  // Survivors relocated intact.
  for (data::SampleId id = 0; id < 400; id += 16) {
    std::vector<std::byte> out;
    store.load_into(id, out);
    ASSERT_EQ(out, payload_for(id, 32, 48)) << "id " << id;
  }
  EXPECT_EQ(store.size(), 400U / 16U);
}

TEST_F(MmapStoreTest, ReopenReplaysSavesRemovesAndOverwrites) {
  {
    MmapStoreConfig cfg;
    cfg.dir = dir_;
    cfg.segment_bytes = 4096;
    MmapSampleStore store(cfg);
    for (data::SampleId id = 0; id < 200; ++id) {
      store.save(id, payload_for(id, 16, 48));
    }
    for (data::SampleId id = 0; id < 200; id += 3) store.remove(id);
    for (data::SampleId id = 1; id < 200; id += 10) {
      store.save(id, payload_for(id + 1'000, 16, 48));  // overwrite
    }
    // Destroyed WITHOUT advance_epoch: quarantined bytes still on disk,
    // replay must resolve them from the log alone.
  }

  MmapSampleStore reopened(dir_);
  std::size_t expect_live = 0;
  std::size_t expect_bytes = 0;
  for (data::SampleId id = 0; id < 200; ++id) {
    const bool removed = id % 3 == 0;
    const bool overwritten = id % 10 == 1;
    std::vector<std::byte> out;
    if (removed && !overwritten) {
      EXPECT_FALSE(reopened.contains(id)) << "id " << id;
      continue;
    }
    const auto want = overwritten ? payload_for(id + 1'000, 16, 48)
                                  : payload_for(id, 16, 48);
    reopened.load_into(id, out);
    ASSERT_EQ(out, want) << "id " << id;
    ++expect_live;
    expect_bytes += want.size();
  }
  EXPECT_EQ(reopened.size(), expect_live);
  EXPECT_EQ(reopened.disk_bytes(), expect_bytes);
  // A reopened store keeps working.
  reopened.save(500, bytes_of({1, 2, 3}));
  EXPECT_TRUE(reopened.contains(500));
}

// Regression: a tombstone in segment S may be the only thing masking an
// older record for the same id in an earlier, retained segment. Freeing
// S (once its live+quarantined counts hit zero) must re-log that
// tombstone, or the next reopen replays the earlier segment and
// resurrects the removed sample.
TEST_F(MmapStoreTest, RemovalSurvivesTombstoneSegmentFreeAcrossReopens) {
  MmapStoreConfig cfg;
  cfg.dir = dir_;
  cfg.segment_bytes = 4096;
  {
    MmapSampleStore store(cfg);
    // Fill segment 0 exactly: 8 records of 504-byte payloads (512 B each
    // with the header) — the next append must roll over.
    for (data::SampleId id = 1; id <= 8; ++id) {
      store.save(id, payload_for(id, 504, 504));
    }
    ASSERT_EQ(store.segment_count(), 1U);
    // The tombstone for id 1 becomes the ONLY record in segment 1...
    store.remove(1);
    // ...which an oversized save then seals (it gets its own segment 2).
    store.save(100, std::vector<std::byte>(8192, std::byte{0x5A}));
    ASSERT_EQ(store.segment_count(), 3U);
    // Drain reclaim until the tombstone-only segment is freed: id 1's
    // extent retires (segment 0 stays, ids 2..8 are live there) and the
    // sweep unlinks segment 1 — re-logging the tombstone first, since
    // segment 0 still holds id 1's record on disk.
    store.advance_epoch();
    store.advance_epoch();
    EXPECT_EQ(store.quarantined_bytes(), 0U);
    EXPECT_EQ(store.segment_count(), 2U) << "tombstone-only segment leaked";
    EXPECT_FALSE(store.contains(1));
  }
  // Reopen TWICE: without the re-log the first reopen replays segment
  // 0's record for id 1 unmasked and resurrects it.
  for (int round = 0; round < 2; ++round) {
    MmapSampleStore reopened(cfg);
    EXPECT_FALSE(reopened.contains(1)) << "resurrected on reopen " << round;
    EXPECT_EQ(reopened.size(), 8U) << "reopen " << round;  // 2..8 and 100
    for (data::SampleId id = 2; id <= 8; ++id) {
      std::vector<std::byte> out;
      reopened.load_into(id, out);
      ASSERT_EQ(out, payload_for(id, 504, 504)) << "id " << id;
    }
  }
}

// Same resurrection hazard on the reopen path: open_existing frees fully
// dead segments, and a reopened tombstone-only segment is fully dead.
// Its tombstones must migrate into a fresh segment, and stay durable
// across arbitrarily many reopen cycles.
TEST_F(MmapStoreTest, ReopenFreesTombstoneOnlySegmentWithoutResurrection) {
  MmapStoreConfig cfg;
  cfg.dir = dir_;
  cfg.segment_bytes = 4096;
  {
    MmapSampleStore store(cfg);
    for (data::SampleId id = 1; id <= 8; ++id) {
      store.save(id, payload_for(id, 504, 504));
    }
    ASSERT_EQ(store.segment_count(), 1U);
    store.remove(1);  // tombstone alone in segment 1
    // Destroyed with the quarantine undrained: replay resolves it.
  }
  for (int round = 0; round < 3; ++round) {
    MmapSampleStore reopened(cfg);
    EXPECT_FALSE(reopened.contains(1)) << "resurrected on reopen " << round;
    EXPECT_EQ(reopened.size(), 7U) << "reopen " << round;
  }
}

TEST_F(MmapStoreTest, ReopenIgnoresForeignFiles) {
  {
    MmapSampleStore store(dir_);
    store.save(1, bytes_of({1, 2, 3}));
  }
  {
    std::ofstream junk(dir_ / "notes.txt");
    junk << "not a segment";
  }
  MmapSampleStore reopened(dir_);
  EXPECT_EQ(reopened.size(), 1U);
  EXPECT_TRUE(reopened.contains(1));
}

// A store whose whole live set is rewritten every epoch reuses the
// segments the previous generation left behind. 63 records of 1000 B fill
// four to a segment and straddle segment boundaries: the first rewrite
// finds no spare, the second finds only the fill's fully dead segments
// (its last one straddles), and from the third on no file is created.
TEST_F(MmapStoreTest, SteadyTurnoverRecyclesDeadSegments) {
  MmapStoreConfig cfg;
  cfg.dir = dir_;
  cfg.segment_bytes = 4096;
  MmapSampleStore store(cfg);
  constexpr data::SampleId kIds = 63;
  constexpr std::size_t kLen = 1000;
  constexpr std::size_t kLiveSegments = 16;  // ceil(63 / 4)
  std::size_t max_files = 0;
  auto write_generation = [&](std::uint32_t gen) {
    for (data::SampleId id = 0; id < kIds; ++id) {
      store.save(id, payload_for(id + gen * 1'000, kLen, kLen));
      max_files = std::max(max_files, files_in(dir_));
    }
    store.advance_epoch();
  };
  write_generation(0);
  write_generation(1);
  write_generation(2);
  const std::uint64_t created = created_segments();
  const std::uint64_t recycled = recycled_segments();
  for (std::uint32_t gen = 3; gen < 20; ++gen) write_generation(gen);

  EXPECT_EQ(created_segments(), created) << "fresh file in steady turnover";
  EXPECT_GE(recycled_segments() - recycled, 17U * (kLiveSegments - 1));
  EXPECT_LE(max_files, 2 * kLiveSegments + 1);
  for (data::SampleId id = 0; id < kIds; ++id) {
    std::vector<std::byte> out;
    store.load_into(id, out);
    ASSERT_EQ(out, payload_for(id + 19'000, kLen, kLen)) << "id " << id;
  }
}

// Only nominal-size segments are kept for reuse: a dead dedicated segment
// is unmapped and its file deleted even while spares are allowed.
TEST_F(MmapStoreTest, FreedOversizedSegmentIsUnlinkedNotKept) {
  MmapStoreConfig cfg;
  cfg.dir = dir_;
  cfg.segment_bytes = 4096;
  MmapSampleStore store(cfg);
  // Segments 0..4 hold 20 live records of 1000 B (four apiece).
  for (data::SampleId id = 0; id < 20; ++id) {
    store.save(id, payload_for(id, 1000, 1000));
  }
  // A dedicated 12 KiB segment 5, too full for the next record...
  store.save(100, std::vector<std::byte>(12'000, std::byte{0x5A}));
  // ...which rolls over into segment 6 and seals it.
  store.save(20, payload_for(20, 1000, 1000));
  ASSERT_EQ(store.segment_count(), 7U);
  const std::size_t resident = store.resident_bytes();
  store.remove(100);
  store.advance_epoch();
  EXPECT_EQ(store.segment_count(), 6U);
  EXPECT_EQ(store.resident_bytes(), resident - 12'288);  // page-rounded
  EXPECT_FALSE(fs::exists(dir_ / "seg00000005.dshuf"));
  EXPECT_EQ(files_in(dir_), 6U);
}

// A ref names a segment by its place among the mapped segments, not by
// the number in its file name: a file numbered past the ref's 24 segment
// bits replays to its own records, and bookkeeping is sized by the files
// present rather than by the largest number.
TEST_F(MmapStoreTest, ReopenAddressesSegmentsWhateverTheirNumbers) {
  const fs::path other = dir_ / "other";
  {
    MmapSampleStore store(dir_);
    store.save(7, bytes_of({'A', 'A', 'A', 'A'}));
  }
  {
    MmapSampleStore store(other);
    store.save(9, bytes_of({'B', 'B', 'B', 'B'}));
  }
  fs::rename(other / "seg00000000.dshuf", dir_ / "seg16777216.dshuf");
  fs::remove_all(other);
  for (int round = 0; round < 2; ++round) {
    MmapSampleStore reopened(dir_);
    std::vector<std::byte> out;
    reopened.load_into(7, out);
    EXPECT_EQ(out, bytes_of({'A', 'A', 'A', 'A'})) << "reopen " << round;
    out.clear();
    reopened.load_into(9, out);
    EXPECT_EQ(out, bytes_of({'B', 'B', 'B', 'B'})) << "reopen " << round;
    EXPECT_EQ(reopened.size(), 2U + static_cast<std::size_t>(round));
    // New segments continue after the largest number.
    reopened.save(11 + static_cast<data::SampleId>(round), bytes_of({'C'}));
  }
  EXPECT_TRUE(fs::exists(dir_ / "seg16777217.dshuf"));
}

// File names carry eight digits of sequence number; a segment past that
// would be skipped as a foreign file on reopen, so creating it is refused.
TEST_F(MmapStoreTest, RefusesSegmentNumberItCannotName) {
  {
    MmapSampleStore store(dir_);
    store.save(1, bytes_of({1, 2, 3}));
  }
  fs::rename(dir_ / "seg00000000.dshuf", dir_ / "seg99999999.dshuf");
  MmapSampleStore reopened(dir_);
  EXPECT_TRUE(reopened.contains(1));
  // Reopened segments are sealed: the next save needs segment 10^8.
  EXPECT_THROW(reopened.save(2, bytes_of({4})), CheckError);
  EXPECT_FALSE(reopened.contains(2));
  std::vector<std::byte> out;
  reopened.load_into(1, out);
  EXPECT_EQ(out, bytes_of({1, 2, 3}));
}

// Crash points between operations: after every step of a seeded script
// of saves, overwrites, removes and epoch advances, a copy of the store's
// directory must reopen to exactly the reference contents. Payloads grow
// with the step, so the live set comes to span several 4 KiB segments and
// dead ones are reused: a reused file must replay only its new records.
TEST_F(MmapStoreTest, EverySnapshotBetweenOperationsReopensToReference) {
  MmapStoreConfig cfg;
  cfg.dir = dir_ / "live";
  cfg.segment_bytes = 4096;
  MmapStoreConfig snap_cfg = cfg;
  snap_cfg.dir = dir_ / "snapshot";
  MmapSampleStore store(cfg);
  std::map<data::SampleId, std::vector<std::byte>> ref;
  std::mt19937_64 rng(20'26);
  const std::uint64_t recycled0 = recycled_segments();
  for (int step = 0; step < 3'000; ++step) {
    const auto id = static_cast<data::SampleId>(rng() % 64);
    const auto roll = rng() % 100;
    if (roll < 60) {
      std::vector<std::byte> p(1 + static_cast<std::size_t>(step) / 8 +
                               rng() % 32);
      for (auto& b : p) b = static_cast<std::byte>(rng() & 0xFF);
      store.save(id, p);
      ref[id] = std::move(p);
    } else if (roll < 85) {
      if (ref.erase(id) != 0) store.remove(id);
    } else {
      store.advance_epoch();
    }
    fs::remove_all(snap_cfg.dir);
    fs::copy(cfg.dir, snap_cfg.dir);
    MmapSampleStore snapshot(snap_cfg);
    ASSERT_EQ(snapshot.size(), ref.size()) << "step " << step;
    for (const auto& [rid, payload] : ref) {
      std::vector<std::byte> out;
      snapshot.load_into(rid, out);
      ASSERT_EQ(out, payload) << "step " << step << " id " << rid;
    }
  }
  EXPECT_GT(recycled_segments(), recycled0) << "no dead segment was reused";
}

TEST_F(MmapStoreTest, WorksWithBothIndexBackends) {
  for (const auto kind :
       {SlotIndexKind::kOpenAddressing, SlotIndexKind::kLearned}) {
    const fs::path sub = dir_ / to_string(kind);
    ScopedSlotIndex scoped(kind);
    MmapSampleStore store(sub);  // picks up the scoped default
    EXPECT_EQ(store.index_kind(), kind);
    for (data::SampleId id = 0; id < 2'000; ++id) {
      store.save(id, payload_for(id, 8, 24));
    }
    for (data::SampleId id = 0; id < 2'000; id += 2) store.remove(id);
    for (data::SampleId id = 1; id < 2'000; id += 2) {
      std::vector<std::byte> out;
      store.load_into(id, out);
      ASSERT_EQ(out, payload_for(id, 8, 24)) << to_string(kind) << " " << id;
    }
    EXPECT_EQ(store.size(), 1'000U);
    EXPECT_GT(store.index_stats().lookups, 0U);
  }
}

// TSan storm: concurrent pinned readers racing a writer that removes,
// re-saves and advances epochs. Under TSan this validates the pin
// release/acquire pairing; under plain builds it validates that a reader
// NEVER observes bytes from a reclaimed or rewritten extent (every span
// it sees must be internally consistent for SOME committed version).
// With 64 KiB segments the 16 KiB live set fits in one segment and no
// dead segment is kept; with 4 KiB segments it spans five, so dead
// segments are reused as spares under the readers.
void run_reclamation_storm(const fs::path& dir, std::size_t segment_bytes) {
  MmapStoreConfig cfg;
  cfg.dir = dir;
  cfg.segment_bytes = segment_bytes;
  MmapSampleStore store(cfg);
  const std::uint64_t recycled0 = recycled_segments();
  constexpr data::SampleId kIds = 64;
  constexpr std::size_t kLen = 256;
  // Version-stamped payloads: byte pattern is a pure function of
  // (id, version), so readers can verify consistency without locks.
  auto make_payload = [](data::SampleId id, std::uint32_t version) {
    std::vector<std::byte> p(kLen);
    for (std::size_t i = 0; i < kLen; ++i) {
      p[i] = static_cast<std::byte>((id * 131 + version * 31 + i) & 0xFF);
    }
    return p;
  };
  for (data::SampleId id = 0; id < kIds; ++id) {
    store.save(id, make_payload(id, 0));
  }

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> reads{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      std::mt19937 rng(static_cast<unsigned>(t) + 1);
      while (!stop.load(std::memory_order_relaxed)) {
        const auto id = static_cast<data::SampleId>(rng() % kIds);
        try {
          auto view = store.pin(id);
          const auto p = view.bytes();
          ASSERT_EQ(p.size(), kLen);
          // Recover the version from byte 0, then check every byte
          // matches that version — a torn/reclaimed span cannot.
          const auto b0 = static_cast<std::uint8_t>(p[0]);
          const auto base = static_cast<std::uint8_t>(id * 131);
          const std::uint8_t v31 = b0 - base;
          for (std::size_t i = 0; i < kLen; ++i) {
            ASSERT_EQ(static_cast<std::uint8_t>(p[i]),
                      static_cast<std::uint8_t>(base + v31 + i))
                << "torn read of id " << id;
          }
          reads.fetch_add(1, std::memory_order_relaxed);
        } catch (const CheckError&) {
          // id transiently absent between remove and re-save — fine.
        }
      }
    });
  }

  std::mt19937 wrng(99);
  for (std::uint32_t round = 1; round <= 300; ++round) {
    for (data::SampleId id = 0; id < kIds; ++id) {
      if (wrng() % 3 == 0) {
        store.remove(id);
        store.save(id, make_payload(id, round));
      } else {
        store.save(id, make_payload(id, round));  // overwrite path
      }
    }
    store.advance_epoch();
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& th : readers) th.join();

  EXPECT_GT(reads.load(), 0U);
  EXPECT_EQ(store.size(), static_cast<std::size_t>(kIds));
  store.advance_epoch();  // drain the last round's quarantine
  store.advance_epoch();
  EXPECT_EQ(store.quarantined_bytes(), 0U);
  if (kIds * kLen > 2 * segment_bytes) {
    EXPECT_GT(recycled_segments(), recycled0) << "no dead segment was reused";
  }
}

TEST_F(MmapStoreTest, ConcurrentReadersSurviveReclamationStorm) {
  for (const std::size_t segment_bytes : {std::size_t{16 * 4096},
                                          std::size_t{4096}}) {
    SCOPED_TRACE(segment_bytes);
    run_reclamation_storm(dir_ / std::to_string(segment_bytes),
                          segment_bytes);
  }
}

}  // namespace
}  // namespace dshuf::io
