// The hierarchical exchange of Section V-F: the grouped plan
// (ExchangePlan::rebuild_grouped) and partial local shuffling driven by
// it (PartialLocalShuffler with a Topology).
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "shuffle/exchange_plan.hpp"
#include "shuffle/shuffler.hpp"
#include "shuffle/topology.hpp"

namespace dshuf::shuffle {
namespace {

std::vector<std::vector<SampleId>> make_shards(std::size_t n,
                                               std::size_t workers) {
  std::vector<std::vector<SampleId>> shards(workers);
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % workers].push_back(static_cast<SampleId>(i));
  }
  return shards;
}

ExchangePlan grouped_plan(std::uint64_t seed, std::size_t epoch, int groups,
                          int group_size, std::size_t quota, double intra) {
  ExchangePlan plan;
  plan.rebuild_grouped(seed, epoch, groups, group_size, quota, intra);
  return plan;
}

// True if round `round` sends at least one rank across a group boundary.
bool round_crosses_groups(const ExchangePlan& plan, int group_size,
                          std::size_t round) {
  for (int r = 0; r < plan.workers(); ++r) {
    if (plan.dest(round, r) / group_size != r / group_size) return true;
  }
  return false;
}

// Fraction of all (round, rank) sends that stay within the sender's group
// — the traffic-locality metric the scheme optimises.
double intra_group_traffic_fraction(const ExchangePlan& plan,
                                    int group_size) {
  std::size_t intra = 0;
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    for (int r = 0; r < plan.workers(); ++r) {
      if (plan.dest(i, r) / group_size == r / group_size) ++intra;
    }
  }
  return static_cast<double>(intra) /
         static_cast<double>(plan.rounds() *
                             static_cast<std::size_t>(plan.workers()));
}

Topology groups_of(int groups, double intra_fraction = 0.5) {
  Topology t;
  t.groups = groups;
  t.intra_fraction = intra_fraction;
  return t;
}

// The balance property must survive the hierarchical constraint: each
// round is still a permutation of all ranks.
class HierBalance
    : public ::testing::TestWithParam<std::tuple<int, int, double>> {};

TEST_P(HierBalance, EveryRoundIsAPermutation) {
  const auto [groups, group_size, intra] = GetParam();
  const int m = groups * group_size;
  const std::size_t quota = 12;
  const ExchangePlan plan = grouped_plan(7, 1, groups, group_size, quota,
                                         intra);
  EXPECT_EQ(plan.rounds(), quota);
  for (std::size_t i = 0; i < quota; ++i) {
    std::vector<bool> hit(m, false);
    for (int r = 0; r < m; ++r) {
      const int d = plan.dest(i, r);
      ASSERT_GE(d, 0);
      ASSERT_LT(d, m);
      EXPECT_FALSE(hit[d]);
      hit[d] = true;
      EXPECT_EQ(plan.source(i, d), r);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, HierBalance,
    ::testing::Combine(::testing::Values(1, 2, 4, 16),
                       ::testing::Values(1, 4, 8),
                       ::testing::Values(0.0, 0.5, 1.0)));

TEST(HierarchicalPlan, IntraRoundsStayWithinGroups) {
  const ExchangePlan plan = grouped_plan(3, 0, 4, 8, 10, /*intra=*/1.0);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    EXPECT_FALSE(round_crosses_groups(plan, 8, i));
  }
  EXPECT_DOUBLE_EQ(intra_group_traffic_fraction(plan, 8), 1.0);
}

TEST(HierarchicalPlan, InterRoundsPermuteGroupsAsBlocks) {
  const ExchangePlan plan = grouped_plan(3, 0, 4, 8, 10, /*intra=*/0.0);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    // All ranks of a group send to the same destination group.
    for (int g = 0; g < 4; ++g) {
      const int dg = plan.dest(i, g * 8) / 8;
      for (int s = 1; s < 8; ++s) {
        EXPECT_EQ(plan.dest(i, g * 8 + s) / 8, dg);
      }
    }
  }
}

TEST(HierarchicalPlan, IntraFractionSplitsRounds) {
  const ExchangePlan plan = grouped_plan(3, 0, 4, 4, 10, /*intra=*/0.5);
  std::size_t inter = 0;
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    const bool crosses = round_crosses_groups(plan, 4, i);
    // The first round(0.5 * 10) rounds are the intra-group ones.
    if (i < 5) {
      EXPECT_FALSE(crosses) << "intra round " << i;
    }
    if (crosses) ++inter;
  }
  // The other 5 draw a group permutation; a draw that happens to be the
  // identity keeps its round local too, so at most 5 rounds cross.
  EXPECT_LE(inter, 5U);
  EXPECT_GT(inter, 0U);
  // Traffic locality: intra rounds are fully local; inter rounds mostly
  // cross (a group can map to itself), so locality is at least the intra
  // share.
  EXPECT_GE(intra_group_traffic_fraction(plan, 4), 0.5);
  EXPECT_LT(intra_group_traffic_fraction(plan, 4), 0.9);
}

TEST(HierarchicalPlan, SingleGroupIsAllIntra) {
  const ExchangePlan plan = grouped_plan(3, 0, 1, 16, 8, /*intra=*/0.0);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    EXPECT_FALSE(round_crosses_groups(plan, 16, i));
  }
}

TEST(HierarchicalPlan, DeterministicForSeedAndEpoch) {
  const ExchangePlan a = grouped_plan(9, 2, 2, 4, 6, 0.5);
  const ExchangePlan b = grouped_plan(9, 2, 2, 4, 6, 0.5);
  for (std::size_t i = 0; i < 6; ++i) {
    for (int r = 0; r < 8; ++r) EXPECT_EQ(a.dest(i, r), b.dest(i, r));
  }
}

TEST(HierarchicalShuffler, ConservesSamples) {
  const std::size_t n = 96;
  PartialLocalShuffler hs(make_shards(n, 8), 0.3, 5, groups_of(2));
  std::multiset<SampleId> expected;
  for (std::size_t i = 0; i < n; ++i) {
    expected.insert(static_cast<SampleId>(i));
  }
  for (std::size_t e = 0; e < 4; ++e) {
    hs.begin_epoch(e);
    std::multiset<SampleId> got;
    for (int w = 0; w < 8; ++w) {
      got.insert(hs.local_order(w).begin(), hs.local_order(w).end());
    }
    EXPECT_EQ(got, expected) << "epoch " << e;
  }
}

TEST(HierarchicalShuffler, BalancedVolumesAndStorageBound) {
  PartialLocalShuffler hs(make_shards(120, 6), 0.25, 5, groups_of(3));
  hs.begin_epoch(0);
  const auto* stats = hs.last_stats();
  const std::size_t quota = exchange_quota(20, 0.25);
  for (std::size_t w = 0; w < 6; ++w) {
    EXPECT_EQ(stats->sent_per_worker[w], quota);
    EXPECT_EQ(stats->received_per_worker[w], quota);
    EXPECT_LE(stats->peak_occupancy_per_worker[w], 20 + quota);
  }
}

TEST(HierarchicalShuffler, KeepsTrafficWithinGroups) {
  // 8 workers in 4 groups of 2, quota 8, 75% intra rounds: at most the
  // 2 inter rounds' sends may leave their group. Epoch 0 sends only
  // initial-shard samples, so a sample's original worker is its sender.
  const int m = 8;
  PartialLocalShuffler hs(make_shards(128, m), 0.5, 5,
                          groups_of(4, /*intra_fraction=*/0.75));
  hs.begin_epoch(0);
  const std::size_t sends = hs.last_stats()->total_sent();
  ASSERT_EQ(sends, 8U * m);
  std::size_t crossed = 0;
  for (int w = 0; w < m; ++w) {
    for (SampleId id : hs.local_order(w)) {
      if (static_cast<int>(id % m) / 2 != w / 2) ++crossed;
    }
  }
  EXPECT_GE(1.0 - static_cast<double>(crossed) / static_cast<double>(sends),
            0.75);
}

TEST(HierarchicalShuffler, MixesAcrossGroupsEventually) {
  const std::size_t n = 128;
  auto shards = make_shards(n, 8);
  const std::set<SampleId> w0(shards[0].begin(), shards[0].end());
  PartialLocalShuffler hs(std::move(shards), 0.3, 5,
                          groups_of(4, /*intra_fraction=*/0.5));
  for (std::size_t e = 0; e < 12; ++e) hs.begin_epoch(e);
  // Worker 6 is in a different group than worker 0; inter-group rounds
  // must have carried some of worker 0's original samples there.
  std::size_t migrated = 0;
  for (int w = 2; w < 8; ++w) {
    for (auto id : hs.local_order(w)) migrated += w0.count(id);
  }
  EXPECT_GT(migrated, 0U);
}

TEST(HierarchicalShuffler, RejectsIndivisibleGroups) {
  EXPECT_THROW(PartialLocalShuffler(make_shards(60, 6), 0.3, 5, groups_of(4)),
               CheckError);
}

TEST(HierarchicalShuffler, LabelEncodesGroups) {
  PartialLocalShuffler hs(make_shards(32, 4), 0.5, 5, groups_of(2));
  EXPECT_EQ(hs.label(), "partial-0.5-hier2");
}

}  // namespace
}  // namespace dshuf::shuffle
