#include "shuffle/shard_store.hpp"

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace dshuf::shuffle {
namespace {

TEST(ShardStore, InitialisesWithShard) {
  ShardStore s({1, 2, 3}, 5);
  EXPECT_EQ(s.size(), 3U);
  EXPECT_EQ(s.capacity(), 5U);
  EXPECT_EQ(s.peak_occupancy(), 3U);
}

TEST(ShardStore, AddTracksPeak) {
  ShardStore s({1, 2}, 4);
  s.add(3);
  s.add(4);
  EXPECT_EQ(s.peak_occupancy(), 4U);
  s.remove_id(1);
  s.remove_id(2);
  EXPECT_EQ(s.size(), 2U);
  EXPECT_EQ(s.peak_occupancy(), 4U);  // peak is sticky
  s.reset_peak();
  EXPECT_EQ(s.peak_occupancy(), 2U);
}

TEST(ShardStore, EnforcesCapacity) {
  ShardStore s({1, 2, 3}, 4);
  s.add(4);
  EXPECT_THROW(s.add(5), CheckError);
}

TEST(ShardStore, ZeroCapacityMeansUnlimited) {
  ShardStore s({1}, 0);
  for (SampleId id = 2; id < 100; ++id) s.add(id);
  EXPECT_EQ(s.size(), 99U);
  EXPECT_FALSE(s.over_capacity());
}

TEST(ShardStore, RemoveSlotSwapsWithLast) {
  ShardStore s({10, 20, 30}, 0);
  s.remove_slot(0);
  EXPECT_EQ(s.size(), 2U);
  EXPECT_EQ(s.ids()[0], 30U);  // last element moved into the hole
  EXPECT_THROW(s.remove_slot(5), CheckError);
}

TEST(ShardStore, RemoveIdRequiresPresence) {
  ShardStore s({10, 20}, 0);
  s.remove_id(10);
  EXPECT_EQ(s.size(), 1U);
  EXPECT_THROW(s.remove_id(10), CheckError);
}

TEST(ShardStore, DuplicateIdsRemoveOneInstance) {
  // Self-sends transiently duplicate an id: add then remove must leave one.
  ShardStore s({7}, 0);
  s.add(7);
  EXPECT_EQ(s.size(), 2U);
  s.remove_id(7);
  EXPECT_EQ(s.size(), 1U);
  EXPECT_EQ(s.ids()[0], 7U);
}

TEST(ShardStore, RejectsInitialOverCapacity) {
  EXPECT_THROW(ShardStore({1, 2, 3}, 2), CheckError);
}

// ---------------------------------------------------------------------------
// The indexed remove_id must be OBSERVABLY identical to the linear scan it
// replaced: find the first occurrence, overwrite it with the last element,
// shrink. The reference below IS that scan; a long randomised op sequence
// (adds, duplicate adds, removals, slot removals, and external permutation
// through mutable_ids) must keep the full ids() sequences equal.

class ReferenceStore {
 public:
  explicit ReferenceStore(std::vector<SampleId> initial)
      : ids_(std::move(initial)) {}

  void add(SampleId id) { ids_.push_back(id); }
  void remove_slot(std::size_t slot) {
    ids_[slot] = ids_.back();
    ids_.pop_back();
  }
  void remove_id(SampleId id) {
    auto it = std::find(ids_.begin(), ids_.end(), id);
    ASSERT_NE(it, ids_.end());
    *it = ids_.back();
    ids_.pop_back();
  }
  std::vector<SampleId>& mutable_ids() { return ids_; }
  [[nodiscard]] const std::vector<SampleId>& ids() const { return ids_; }

 private:
  std::vector<SampleId> ids_;
};

TEST(ShardStoreIndex, MatchesLinearScanReferenceUnderRandomOps) {
  Rng rng(77);
  std::vector<SampleId> initial;
  for (SampleId id = 0; id < 64; ++id) initial.push_back(id);
  ShardStore store(initial, 0);
  ReferenceStore ref(initial);

  for (int step = 0; step < 30000; ++step) {
    ASSERT_EQ(store.ids(), ref.ids()) << "diverged at step " << step;
    const auto op = rng.uniform_u64(8);
    const std::size_t n = ref.ids().size();
    if (op < 3 || n == 0) {
      // Mix fresh ids with copies of held ones so duplicates are common.
      const SampleId id =
          (n > 0 && rng.uniform_u64(2) == 0)
              ? ref.ids()[static_cast<std::size_t>(rng.uniform_u64(n))]
              : static_cast<SampleId>(rng.uniform_u64(512));
      store.add(id);
      ref.add(id);
    } else if (op < 6) {
      const auto pick = static_cast<std::size_t>(rng.uniform_u64(n));
      const SampleId id = ref.ids()[pick];
      store.remove_id(id);
      ref.remove_id(id);
    } else if (op == 6) {
      const auto slot = static_cast<std::size_t>(rng.uniform_u64(n));
      store.remove_slot(slot);
      ref.remove_slot(slot);
    } else {
      // External permutation through mutable_ids (the post-exchange local
      // shuffle does exactly this) — invalidates the index mid-sequence.
      Rng perm_rng(static_cast<std::uint64_t>(step));
      perm_rng.shuffle(store.mutable_ids());
      Rng perm_rng2(static_cast<std::uint64_t>(step));
      perm_rng2.shuffle(ref.mutable_ids());
    }
  }
}

TEST(ShardStoreIndex, ManyDuplicatesOfOneId) {
  ShardStore s({5, 9, 5}, 0);
  s.add(5);
  s.add(5);  // ids: 5 9 5 5 5
  s.remove_id(5);  // first occurrence replaced by last: 5 9 5 5
  EXPECT_EQ(s.ids(), (std::vector<SampleId>{5, 9, 5, 5}));
  s.remove_id(5);
  EXPECT_EQ(s.ids(), (std::vector<SampleId>{5, 9, 5}));
  s.remove_id(9);
  EXPECT_EQ(s.ids(), (std::vector<SampleId>{5, 5}));
  s.remove_id(5);
  s.remove_id(5);
  EXPECT_TRUE(s.ids().empty());
  EXPECT_THROW(s.remove_id(5), CheckError);
}

// The exchange's own pattern at dp_pls size, under both index backends:
// each epoch a 13,312-id shard stages a 3,994-id quota — copies of every
// other pick (the self-round) interleaved with fresh ids from peers — then
// removes each pick's first occurrence and is permuted by the local
// shuffle. Removing a self-sent pick leaves its staged copy behind, which
// is the case the index's second-copy position exists for.
TEST(ShardStoreIndex, MatchesLinearScanReferenceOnExchangeEpochs) {
  constexpr std::size_t kShard = 13'312;
  constexpr std::size_t kQuota = 3'994;
  for (const io::SlotIndexKind kind :
       {io::SlotIndexKind::kOpenAddressing, io::SlotIndexKind::kLearned}) {
    io::ScopedSlotIndex scoped(kind);
    std::vector<SampleId> initial(kShard);
    std::iota(initial.begin(), initial.end(), SampleId{0});
    ShardStore store(initial, kShard + kQuota);
    ReferenceStore ref(initial);
    auto fresh = static_cast<SampleId>(kShard);
    Rng rng(4242);
    std::vector<std::size_t> slots(kShard);
    for (std::uint64_t epoch = 0; epoch < 3; ++epoch) {
      std::iota(slots.begin(), slots.end(), std::size_t{0});
      rng.shuffle(slots);
      std::vector<SampleId> picks(kQuota);
      for (std::size_t i = 0; i < kQuota; ++i) picks[i] = ref.ids()[slots[i]];
      for (std::size_t i = 0; i < kQuota; ++i) {
        const SampleId id = i % 2 == 0 ? picks[i] : fresh++;
        store.add(id);
        ref.add(id);
        ASSERT_EQ(store.ids(), ref.ids())
            << io::to_string(kind) << " epoch " << epoch << " add " << i;
      }
      // Picks leave in an order unrelated to the one their copies arrived in.
      rng.shuffle(picks);
      for (std::size_t i = 0; i < kQuota; ++i) {
        store.remove_id(picks[i]);
        ref.remove_id(picks[i]);
        ASSERT_EQ(store.ids(), ref.ids())
            << io::to_string(kind) << " epoch " << epoch << " remove " << i;
      }
      Rng perm(epoch);
      perm.shuffle(store.mutable_ids());
      Rng perm2(epoch);
      perm2.shuffle(ref.mutable_ids());
    }
    EXPECT_EQ(store.size(), kShard);
  }
}

// The removal index rides on io::SlotIndex: under the learned backend
// (ScopedSlotIndex) the observable ids() sequence must stay bit-identical
// to the open-addressing default across a mixed schedule — the backends
// are interchangeable behind the store.
TEST(ShardStoreIndex, LearnedBackendMatchesOpenAddressing) {
  std::vector<SampleId> initial;
  for (SampleId id = 0; id < 48; ++id) initial.push_back(id);

  auto run_schedule = [&initial](io::SlotIndexKind kind) {
    io::ScopedSlotIndex scoped(kind);
    ShardStore store(initial, 0);
    Rng rng(123);
    std::vector<std::vector<SampleId>> history;
    for (int step = 0; step < 5'000; ++step) {
      const auto op = rng.uniform_u64(8);
      const std::size_t n = store.ids().size();
      if (op < 3 || n == 0) {
        store.add(static_cast<SampleId>(rng.uniform_u64(256)));
      } else if (op < 6) {
        store.remove_id(
            store.ids()[static_cast<std::size_t>(rng.uniform_u64(n))]);
      } else if (op == 6) {
        store.remove_slot(static_cast<std::size_t>(rng.uniform_u64(n)));
      } else {
        Rng perm(static_cast<std::uint64_t>(step));
        perm.shuffle(store.mutable_ids());
      }
      history.push_back(store.ids());
    }
    return history;
  };

  const auto hash_arm = run_schedule(io::SlotIndexKind::kOpenAddressing);
  const auto learned_arm = run_schedule(io::SlotIndexKind::kLearned);
  ASSERT_EQ(hash_arm.size(), learned_arm.size());
  for (std::size_t i = 0; i < hash_arm.size(); ++i) {
    ASSERT_EQ(hash_arm[i], learned_arm[i]) << "diverged at step " << i;
  }
}

// Switching the process-wide backend mid-stream takes effect at the next
// lazy rebuild (mutable_ids invalidation) without corrupting state.
TEST(ShardStoreIndex, BackendSwitchMidStreamRebuildsCleanly) {
  ShardStore s({1, 2, 3, 2}, 0);
  s.remove_id(2);  // builds the default (open-addressing) index
  EXPECT_EQ(s.ids(), (std::vector<SampleId>{1, 2, 3}));
  {
    io::ScopedSlotIndex learned(io::SlotIndexKind::kLearned);
    s.mutable_ids();  // invalidate so the next op rebuilds (now learned)
    s.remove_id(3);
    EXPECT_EQ(s.ids(), (std::vector<SampleId>{1, 2}));
    EXPECT_GT(s.index_stats().lookups, 0U);
  }
  s.mutable_ids();
  s.remove_id(1);  // back on the default backend
  EXPECT_EQ(s.ids(), (std::vector<SampleId>{2}));
}

TEST(PlsCapacity, MatchesShardPlusQuota) {
  EXPECT_EQ(pls_capacity(100, 0.0), 100U);
  EXPECT_EQ(pls_capacity(100, 0.1), 110U);
  EXPECT_EQ(pls_capacity(100, 1.0), 200U);
  EXPECT_EQ(pls_capacity(3, 0.5), 5U);  // ceil(1.5) = 2 extra
}

}  // namespace
}  // namespace dshuf::shuffle
