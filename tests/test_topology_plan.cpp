// Property tests for the topology-aware exchange plan at paper scale.
//
// When a Topology is installed, the exchange swaps its flat Algorithm-1
// permutations for ExchangePlan::rebuild_grouped — which must (a) keep the
// every-round-is-a-permutation balance guarantee the whole scheme rests
// on, (b) route each round's inter-group traffic as whole-group blocks
// (one destination group per source group — that's what makes a leader
// aggregate a single trunk instead of S fan-out flows), and (c) stay
// draw-for-draw identical to the independently written
// HierarchicalExchangePlan (hierarchical_plan_oracle.hpp).
// The sizes here are virtual-backend sizes (M up to 4096), far past what
// the threaded suite exercises.
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "hierarchical_plan_oracle.hpp"
#include "shuffle/exchange_plan.hpp"
#include "shuffle/topology.hpp"
#include "util/error.hpp"

namespace dshuf::shuffle {
namespace {

void expect_round_is_permutation(const ExchangePlan& plan, std::size_t round,
                                 int m) {
  std::vector<char> hit(static_cast<std::size_t>(m), 0);
  for (int r = 0; r < m; ++r) {
    const int d = plan.dest(round, r);
    ASSERT_GE(d, 0);
    ASSERT_LT(d, m);
    ASSERT_EQ(hit[static_cast<std::size_t>(d)], 0)
        << "round " << round << " maps two ranks onto " << d;
    hit[static_cast<std::size_t>(d)] = 1;
  }
}

TEST(TopologyPlan, EveryRoundIsAPermutationAtLargeG) {
  // 4096 ranks in 64 groups of 64 — the fig06 ceiling.
  const int groups = 64;
  const int group_size = 64;
  const int m = groups * group_size;
  ExchangePlan plan;
  plan.rebuild_grouped(2024, 5, groups, group_size, 8, 0.5);
  ASSERT_EQ(plan.workers(), m);
  ASSERT_EQ(plan.rounds(), 8U);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    expect_round_is_permutation(plan, i, m);
  }
}

TEST(TopologyPlan, RoundsMoveGroupsAsBlocks) {
  // In any round, all ranks of one source group land in ONE destination
  // group, and the group-level map is itself a permutation — so each
  // group's uplink carries at most one trunk per round and the total
  // inter-group degree over an epoch is bounded by min(rounds, G), never
  // S * (G - 1).
  const int groups = 32;
  const int group_size = 32;
  const std::size_t quota = 12;
  ExchangePlan plan;
  plan.rebuild_grouped(91, 2, groups, group_size, quota, 0.25);

  std::vector<std::set<int>> peers_of_group(static_cast<std::size_t>(groups));
  for (std::size_t i = 0; i < quota; ++i) {
    std::vector<int> gdest(static_cast<std::size_t>(groups), -1);
    std::set<int> used;
    for (int g = 0; g < groups; ++g) {
      for (int s = 0; s < group_size; ++s) {
        const int rank = g * group_size + s;
        const int dg = plan.dest(i, rank) / group_size;
        if (gdest[static_cast<std::size_t>(g)] == -1) {
          gdest[static_cast<std::size_t>(g)] = dg;
          used.insert(dg);
        } else {
          ASSERT_EQ(gdest[static_cast<std::size_t>(g)], dg)
              << "round " << i << ": group " << g << " split across "
              << "destination groups";
        }
      }
      peers_of_group[static_cast<std::size_t>(g)].insert(
          gdest[static_cast<std::size_t>(g)]);
    }
    EXPECT_EQ(used.size(), static_cast<std::size_t>(groups))
        << "round " << i << ": group-level map is not a permutation";
  }
  for (int g = 0; g < groups; ++g) {
    EXPECT_LE(peers_of_group[static_cast<std::size_t>(g)].size(),
              std::min(quota, static_cast<std::size_t>(groups)));
  }
}

TEST(TopologyPlan, IntraFractionRoundsStayHome) {
  const int groups = 16;
  const int group_size = 8;
  const std::size_t quota = 8;
  ExchangePlan plan;
  plan.rebuild_grouped(7, 0, groups, group_size, quota, 0.5);
  const std::size_t intra_rounds =
      static_cast<std::size_t>(0.5 * static_cast<double>(quota));
  for (std::size_t i = 0; i < intra_rounds; ++i) {
    for (int r = 0; r < groups * group_size; ++r) {
      EXPECT_EQ(plan.dest(i, r) / group_size, r / group_size)
          << "intra round " << i << " leaked rank " << r << " across groups";
    }
  }
}

TEST(TopologyPlan, MatchesHierarchicalPlanDrawForDraw) {
  // rebuild_grouped promises bit-identity with the oracle's plan — same
  // forked RNG streams, same tables.
  for (std::size_t epoch : {0UL, 1UL, 7UL}) {
    const int groups = 8;
    const int group_size = 16;
    const std::size_t quota = 10;
    ExchangePlan grouped;
    grouped.rebuild_grouped(55, epoch, groups, group_size, quota, 0.4);
    const HierarchicalExchangePlan ref(55, epoch, groups, group_size, quota,
                                       0.4);
    ASSERT_EQ(grouped.rounds(), ref.rounds());
    for (std::size_t i = 0; i < ref.rounds(); ++i) {
      for (int r = 0; r < ref.workers(); ++r) {
        ASSERT_EQ(grouped.dest(i, r), ref.dest(i, r))
            << "epoch " << epoch << " round " << i << " rank " << r;
        ASSERT_EQ(grouped.source(i, r), ref.source(i, r))
            << "epoch " << epoch << " round " << i << " rank " << r;
      }
    }
  }
}

TEST(TopologyPlan, SourceInvertsDest) {
  ExchangePlan plan;
  plan.rebuild_grouped(3, 1, 32, 16, 6, 0.5);
  for (std::size_t i = 0; i < plan.rounds(); ++i) {
    for (int r = 0; r < plan.workers(); ++r) {
      EXPECT_EQ(plan.source(i, plan.dest(i, r)), r);
    }
  }
}

TEST(TopologyResolution, ValidatesShape) {
  Topology topo;
  topo.groups = 4;
  topo.group_size = 0;  // derive
  const Topology r = topo.resolved_for(64);
  EXPECT_EQ(r.group_size, 16);
  EXPECT_EQ(r.group_of(17), 1);
  EXPECT_EQ(r.leader_of(2), 32);
  EXPECT_THROW((void)topo.resolved_for(62), CheckError);  // 62 % 4 != 0
  Topology bad = topo;
  bad.groups = 0;
  EXPECT_THROW((void)bad.resolved_for(64), CheckError);
}

}  // namespace
}  // namespace dshuf::shuffle
