// Unit + randomized differential tests for the pluggable id -> slot
// index (io/slot_index.hpp): both backends must agree with a std::map
// reference over arbitrary put/erase/find/clear schedules, and the
// learned backend's piecewise-linear core must stay correct through
// delta merges, tombstoning and rebuilds.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <vector>

#include "io/slot_index.hpp"

namespace dshuf::io {
namespace {

class SlotIndexBackends
    : public ::testing::TestWithParam<SlotIndexKind> {};

INSTANTIATE_TEST_SUITE_P(Backends, SlotIndexBackends,
                         ::testing::Values(SlotIndexKind::kOpenAddressing,
                                           SlotIndexKind::kLearned),
                         [](const auto& param_info) {
                           return to_string(param_info.param);
                         });

TEST_P(SlotIndexBackends, PutFindEraseBasics) {
  auto idx = make_slot_index(GetParam());
  EXPECT_EQ(idx->kind(), GetParam());
  EXPECT_EQ(idx->size(), 0U);

  EXPECT_TRUE(idx->put(7, 70));
  EXPECT_TRUE(idx->put(3, 30));
  EXPECT_FALSE(idx->put(7, 71));  // overwrite is not an insert
  EXPECT_EQ(idx->size(), 2U);

  std::uint64_t v = 0;
  ASSERT_TRUE(idx->find(7, v));
  EXPECT_EQ(v, 71U);
  ASSERT_TRUE(idx->find(3, v));
  EXPECT_EQ(v, 30U);
  EXPECT_FALSE(idx->find(4, v));

  EXPECT_TRUE(idx->erase(7));
  EXPECT_FALSE(idx->erase(7));
  EXPECT_FALSE(idx->find(7, v));
  EXPECT_EQ(idx->size(), 1U);
}

TEST_P(SlotIndexBackends, ClearEmptiesAndStaysUsable) {
  auto idx = make_slot_index(GetParam());
  for (data::SampleId id = 0; id < 500; ++id) idx->put(id, id * 2);
  idx->clear();
  EXPECT_EQ(idx->size(), 0U);
  std::uint64_t v = 0;
  EXPECT_FALSE(idx->find(123, v));
  for (data::SampleId id = 0; id < 500; ++id) idx->put(id, id * 3);
  ASSERT_TRUE(idx->find(123, v));
  EXPECT_EQ(v, 369U);
}

TEST_P(SlotIndexBackends, ForEachVisitsEveryLivePair) {
  auto idx = make_slot_index(GetParam());
  std::map<data::SampleId, std::uint64_t> ref;
  for (data::SampleId id = 0; id < 300; id += 3) {
    idx->put(id, id + 1000);
    ref[id] = id + 1000;
  }
  for (data::SampleId id = 0; id < 300; id += 9) {
    idx->erase(id);
    ref.erase(id);
  }
  std::map<data::SampleId, std::uint64_t> seen;
  idx->for_each([&seen](data::SampleId id, std::uint64_t v) {
    EXPECT_TRUE(seen.emplace(id, v).second) << "duplicate visit of " << id;
  });
  EXPECT_EQ(seen, ref);
}

// The core differential guarantee: any interleaving of put/erase/find
// matches a std::map, for dense ids (learned index's best case), sparse
// random ids (its worst case), and mixtures with heavy overwriting.
TEST_P(SlotIndexBackends, MatchesMapReferenceUnderRandomSchedules) {
  for (const std::uint32_t id_range : {1'000U, 1'000'000'000U}) {
    for (const std::uint64_t seed : {1ULL, 77ULL, 20'26ULL}) {
      auto idx = make_slot_index(GetParam());
      std::map<data::SampleId, std::uint64_t> ref;
      std::mt19937_64 rng(seed);
      std::uniform_int_distribution<std::uint32_t> id_dist(0, id_range - 1);
      for (int op = 0; op < 20'000; ++op) {
        const auto id = static_cast<data::SampleId>(id_dist(rng));
        switch (rng() % 4) {
          case 0:
          case 1: {  // put (50%)
            const std::uint64_t v = rng();
            const bool was_new = ref.emplace(id, v).second;
            if (!was_new) ref[id] = v;
            EXPECT_EQ(idx->put(id, v), was_new);
            break;
          }
          case 2: {  // erase (25%)
            EXPECT_EQ(idx->erase(id), ref.erase(id) > 0);
            break;
          }
          default: {  // find (25%)
            std::uint64_t v = 0;
            const auto it = ref.find(id);
            EXPECT_EQ(idx->find(id, v), it != ref.end());
            if (it != ref.end()) {
              EXPECT_EQ(v, it->second);
            }
            break;
          }
        }
        EXPECT_EQ(idx->size(), ref.size());
      }
      // Full sweep at the end: every live key findable, with its value.
      for (const auto& [id, v] : ref) {
        std::uint64_t got = 0;
        ASSERT_TRUE(idx->find(id, got)) << "lost id " << id;
        EXPECT_EQ(got, v);
      }
    }
  }
}

TEST_P(SlotIndexBackends, StatsCountLookups) {
  auto idx = make_slot_index(GetParam());
  for (data::SampleId id = 0; id < 1'000; ++id) idx->put(id, id);
  const auto before = idx->stats();
  std::uint64_t v = 0;
  for (data::SampleId id = 0; id < 1'000; ++id) {
    ASSERT_TRUE(idx->find(id, v));
  }
  const auto after = idx->stats();
  EXPECT_EQ(after.lookups - before.lookups, 1'000U);
  EXPECT_GE(after.probes, before.probes);
}

// Sorted dense keys are the learned index's home turf: the piecewise-
// linear fit should cover a perfectly linear id space with one segment
// and near-zero last-mile probes per lookup.
TEST(LearnedSlotIndex, DenseSortedKeysLookupWithFewProbes) {
  auto idx = make_slot_index(SlotIndexKind::kLearned);
  constexpr std::size_t kN = 100'000;
  for (data::SampleId id = 0; id < kN; ++id) idx->put(id, id * 7);
  // Force the delta buffer into the learned core so lookups exercise the
  // piecewise-linear path rather than the delta hash.
  const auto s0 = idx->stats();
  EXPECT_GE(s0.rebuilds, 1U);
  std::uint64_t v = 0;
  for (data::SampleId id = 0; id < kN; ++id) {
    ASSERT_TRUE(idx->find(id, v));
    ASSERT_EQ(v, id * 7);
  }
  const auto s1 = idx->stats();
  const double probes_per_lookup =
      static_cast<double>(s1.probes - s0.probes) /
      static_cast<double>(s1.lookups - s0.lookups);
  // Bounded-error last-mile search: at most log2(2*eps+1) ~ 6 steps, and
  // on a perfectly linear space typically far fewer.
  EXPECT_LE(probes_per_lookup, 8.0);
}

TEST(LearnedSlotIndex, RebuildsAreAmortised) {
  auto idx = make_slot_index(SlotIndexKind::kLearned);
  for (data::SampleId id = 0; id < 200'000; ++id) {
    idx->put(id * 2, id);  // even ids, ascending
  }
  const auto s = idx->stats();
  // Geometric delta growth => O(log n) merges, not O(n).
  EXPECT_LE(s.rebuilds, 64U);
  EXPECT_EQ(idx->size(), 200'000U);
}

TEST(ScopedSlotIndexTest, SwitchesAndRestoresProcessDefault) {
  const auto base = slot_index_kind();
  {
    ScopedSlotIndex learned(SlotIndexKind::kLearned);
    EXPECT_EQ(slot_index_kind(), SlotIndexKind::kLearned);
    EXPECT_EQ(make_slot_index()->kind(), SlotIndexKind::kLearned);
    {
      ScopedSlotIndex hash(SlotIndexKind::kOpenAddressing);
      EXPECT_EQ(slot_index_kind(), SlotIndexKind::kOpenAddressing);
    }
    EXPECT_EQ(slot_index_kind(), SlotIndexKind::kLearned);
  }
  EXPECT_EQ(slot_index_kind(), base);
}

TEST(SlotIndexNames, ToStringRoundTrip) {
  EXPECT_EQ(to_string(SlotIndexKind::kOpenAddressing), "open_addressing");
  EXPECT_EQ(to_string(SlotIndexKind::kLearned), "learned");
}

}  // namespace
}  // namespace dshuf::io
