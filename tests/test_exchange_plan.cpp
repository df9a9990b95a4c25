#include "shuffle/exchange_plan.hpp"

#include <algorithm>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/mathx.hpp"

namespace dshuf::shuffle {
namespace {

// THE property of Algorithm 1: every worker sends exactly k samples and
// receives exactly k samples, for any (M, k). Swept parametrically.
class BalanceProperty
    : public ::testing::TestWithParam<std::tuple<int, std::size_t>> {};

TEST_P(BalanceProperty, EveryWorkerSendsAndReceivesQuota) {
  const auto [workers, quota] = GetParam();
  const ExchangePlan plan(/*seed=*/77, /*epoch=*/3, workers, quota);
  EXPECT_EQ(plan.rounds(), quota);

  std::vector<std::size_t> sent(workers, 0);
  std::vector<std::size_t> received(workers, 0);
  for (std::size_t i = 0; i < quota; ++i) {
    for (int r = 0; r < workers; ++r) {
      ++sent[r];
      ++received[plan.dest(i, r)];
    }
  }
  for (int r = 0; r < workers; ++r) {
    EXPECT_EQ(sent[r], quota);
    EXPECT_EQ(received[r], quota) << "rank " << r << " imbalance";
  }
}

INSTANTIATE_TEST_SUITE_P(
    ScaleSweep, BalanceProperty,
    ::testing::Combine(::testing::Values(1, 2, 3, 8, 64, 257),
                       ::testing::Values<std::size_t>(0, 1, 5, 32)));

TEST(ExchangePlan, EachRoundIsAPermutation) {
  const int m = 19;
  const ExchangePlan plan(5, 0, m, 7);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    std::vector<bool> hit(m, false);
    for (int r = 0; r < m; ++r) {
      const int d = plan.dest(i, r);
      ASSERT_GE(d, 0);
      ASSERT_LT(d, m);
      EXPECT_FALSE(hit[d]);
      hit[d] = true;
    }
  }
}

TEST(ExchangePlan, SourceIsInverseOfDest) {
  const ExchangePlan plan(5, 2, 11, 4);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    for (int r = 0; r < 11; ++r) {
      EXPECT_EQ(plan.source(i, plan.dest(i, r)), r);
    }
  }
}

// The shared-seed property that makes the distributed implementation work:
// any worker can reconstruct the identical plan locally.
TEST(ExchangePlan, DeterministicForSeedAndEpoch) {
  const ExchangePlan a(123, 9, 17, 6);
  const ExchangePlan b(123, 9, 17, 6);
  for (std::size_t i = 0; i < 6; ++i) {
    for (int r = 0; r < 17; ++r) {
      EXPECT_EQ(a.dest(i, r), b.dest(i, r));
    }
  }
}

TEST(ExchangePlan, DifferentEpochsGiveDifferentPlans) {
  const ExchangePlan a(123, 0, 17, 6);
  const ExchangePlan b(123, 1, 17, 6);
  int differences = 0;
  for (std::size_t i = 0; i < 6; ++i) {
    for (int r = 0; r < 17; ++r) {
      if (a.dest(i, r) != b.dest(i, r)) ++differences;
    }
  }
  EXPECT_GT(differences, 50);
}

TEST(ExchangePlan, DestsAndSourcesForRankAreConsistent) {
  const ExchangePlan plan(7, 1, 9, 5);
  const auto dests = plan.dests_for(4);
  const auto sources = plan.sources_for(4);
  ASSERT_EQ(dests.size(), 5U);
  ASSERT_EQ(sources.size(), 5U);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(dests[i], plan.dest(i, 4));
    EXPECT_EQ(sources[i], plan.source(i, 4));
  }
}

TEST(ExchangePlan, SelfSendsOccurAtExpectedRate) {
  // A uniform random permutation has ~1 fixed point in expectation, so
  // across R rounds self-sends ~ R.
  const std::size_t rounds = 200;
  const ExchangePlan plan(3, 0, 50, rounds);
  const std::size_t selfs = plan.self_sends();
  EXPECT_GT(selfs, rounds / 4);
  EXPECT_LT(selfs, rounds * 4);
}

TEST(ExchangePlan, DerangementOptionEliminatesSelfSends) {
  const ExchangePlan plan(3, 0, 50, 50, /*allow_self=*/false);
  EXPECT_EQ(plan.self_sends(), 0U);
  // Still balanced.
  std::vector<std::size_t> received(50, 0);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    for (int r = 0; r < 50; ++r) ++received[plan.dest(i, r)];
  }
  for (auto c : received) EXPECT_EQ(c, plan.rounds());
}

TEST(ExchangePlan, BoundsChecked) {
  const ExchangePlan plan(1, 0, 4, 2);
  EXPECT_THROW((void)plan.dest(2, 0), CheckError);
  EXPECT_THROW((void)plan.dest(0, 4), CheckError);
  EXPECT_THROW((void)plan.dest(0, -1), CheckError);
}

TEST(ExchangeQuota, CeilAndClamp) {
  EXPECT_EQ(exchange_quota(100, 0.0), 0U);
  EXPECT_EQ(exchange_quota(100, 0.1), 10U);
  EXPECT_EQ(exchange_quota(100, 0.101), 11U);  // ceil
  EXPECT_EQ(exchange_quota(100, 1.0), 100U);
  EXPECT_EQ(exchange_quota(3, 0.5), 2U);
  EXPECT_THROW(exchange_quota(10, 1.5), CheckError);
  EXPECT_THROW(exchange_quota(10, -0.1), CheckError);
}

void expect_same_plan(const ExchangePlan& got, const ExchangePlan& want) {
  ASSERT_EQ(got.workers(), want.workers());
  ASSERT_EQ(got.rounds(), want.rounds());
  for (std::size_t i = 0; i < want.rounds(); ++i) {
    for (int r = 0; r < want.workers(); ++r) {
      ASSERT_EQ(got.dest(i, r), want.dest(i, r)) << "round " << i;
      ASSERT_EQ(got.source(i, r), want.source(i, r)) << "round " << i;
    }
  }
}

PlanSpec cache_spec(std::uint64_t seed, std::size_t epoch) {
  PlanSpec spec;
  spec.seed = seed;
  spec.epoch = epoch;
  spec.workers = 8;
  spec.quota = 6;
  return spec;
}

TEST(PlanCache, CallersOfOneEpochShareOneBuild) {
  const std::uint64_t builds = exchange_plan_builds();
  SharedPlan a;
  SharedPlan b;
  acquire_exchange_plan(cache_spec(0xCAC4E01, 2), a);
  acquire_exchange_plan(cache_spec(0xCAC4E01, 2), b);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_EQ(exchange_plan_builds() - builds, 1U);
  expect_same_plan(*a, ExchangePlan(0xCAC4E01, 2, 8, 6));
}

TEST(PlanCache, HeldPlanIsNeverRebuiltUnderItsHolder) {
  // A straggler still holds epoch 3 while another caller runs many more
  // epochs than the cache has slots: every miss recycles the oldest
  // entry, and the held one must be replaced, not rebuilt in place.
  const std::uint64_t seed = 0xCAC4E02;
  SharedPlan held;
  acquire_exchange_plan(cache_spec(seed, 3), held);
  const ExchangePlan* before = held.get();
  SharedPlan runner;
  for (std::size_t e = 4; e < 20; ++e) {
    acquire_exchange_plan(cache_spec(seed, e), runner);
  }
  EXPECT_EQ(held.get(), before);
  expect_same_plan(*held, ExchangePlan(seed, 3, 8, 6));
  expect_same_plan(*runner, ExchangePlan(seed, 19, 8, 6));
}

// The ablation claim: naive independent destinations are NOT balanced —
// some worker receives measurably more than the quota.
TEST(NaiveExchange, IsImbalanced) {
  const int m = 64;
  const std::size_t quota = 32;
  const auto recv = naive_exchange_recv_counts(9, 0, m, quota);
  const auto mx = *std::max_element(recv.begin(), recv.end());
  const auto mn = *std::min_element(recv.begin(), recv.end());
  EXPECT_GT(mx, quota);  // someone is oversubscribed
  EXPECT_LT(mn, quota);  // someone starves
  // Conservation still holds in aggregate.
  std::size_t total = 0;
  for (auto c : recv) total += c;
  EXPECT_EQ(total, quota * m);
}

}  // namespace
}  // namespace dshuf::shuffle
