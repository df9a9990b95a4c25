#include "netsim/flowsim.hpp"

#include <gtest/gtest.h>

namespace dshuf::netsim {
namespace {

LinkCaps caps(double nic = 100.0, double fabric = 0.0, double lat = 0.0) {
  return LinkCaps{.nic_out_bps = nic,
                  .nic_in_bps = nic,
                  .fabric_bps = fabric,
                  .per_message_latency_s = lat};
}

TEST(FlowSim, SingleFlowTakesBytesOverBandwidth) {
  const std::vector<Flow> flows{{0, 1, 1000.0, 0.0, true}};
  const auto out = simulate_flows(flows, caps(100.0), 2);
  EXPECT_NEAR(out.flow_finish_s[0], 10.0, 1e-9);
  EXPECT_NEAR(out.makespan_s, 10.0, 1e-9);
}

TEST(FlowSim, LatencyDelaysTheStart) {
  const std::vector<Flow> flows{{0, 1, 1000.0, 2.0, true}};
  const auto out = simulate_flows(flows, caps(100.0, 0.0, 0.5), 2);
  EXPECT_NEAR(out.flow_finish_s[0], 2.0 + 0.5 + 10.0, 1e-9);
}

TEST(FlowSim, TwoFlowsShareTheEgressNic) {
  // Same source, different destinations: the out-NIC is the bottleneck.
  const std::vector<Flow> flows{{0, 1, 1000.0, 0.0, true},
                                {0, 2, 1000.0, 0.0, true}};
  const auto out = simulate_flows(flows, caps(100.0), 3);
  EXPECT_NEAR(out.flow_finish_s[0], 20.0, 1e-6);
  EXPECT_NEAR(out.flow_finish_s[1], 20.0, 1e-6);
}

TEST(FlowSim, IncastSharesTheIngressNic) {
  const std::vector<Flow> flows{{0, 2, 1000.0, 0.0, true},
                                {1, 2, 1000.0, 0.0, true}};
  const auto out = simulate_flows(flows, caps(100.0), 3);
  EXPECT_NEAR(out.makespan_s, 20.0, 1e-6);
}

TEST(FlowSim, DisjointPairsRunAtFullRate) {
  const std::vector<Flow> flows{{0, 1, 1000.0, 0.0, true},
                                {2, 3, 1000.0, 0.0, true}};
  const auto out = simulate_flows(flows, caps(100.0), 4);
  EXPECT_NEAR(out.makespan_s, 10.0, 1e-6);
}

TEST(FlowSim, FabricCapsAggregateThroughput) {
  // Four disjoint pairs, each NIC could do 100, but the fabric only
  // carries 200 total => each flow gets 50.
  std::vector<Flow> flows;
  for (int i = 0; i < 4; ++i) {
    flows.push_back(Flow{2 * i, 2 * i + 1, 1000.0, 0.0, true});
  }
  const auto out = simulate_flows(flows, caps(100.0, 200.0), 8);
  EXPECT_NEAR(out.makespan_s, 20.0, 1e-6);
}

TEST(FlowSim, FabricBypassedByLocalFlows) {
  std::vector<Flow> flows;
  for (int i = 0; i < 4; ++i) {
    flows.push_back(Flow{2 * i, 2 * i + 1, 1000.0, 0.0,
                         /*uses_fabric=*/false});
  }
  const auto out = simulate_flows(flows, caps(100.0, 200.0), 8);
  EXPECT_NEAR(out.makespan_s, 10.0, 1e-6);  // NIC-bound only
}

TEST(FlowSim, MaxMinFairnessAfterACompletionReallocates) {
  // Flow A: 0->1 (2000 bytes); flow B: 0->2 (1000 bytes). They share the
  // out-NIC (50 each); when B finishes at t=20, A speeds up to 100.
  const std::vector<Flow> flows{{0, 1, 2000.0, 0.0, true},
                                {0, 2, 1000.0, 0.0, true}};
  const auto out = simulate_flows(flows, caps(100.0), 3);
  EXPECT_NEAR(out.flow_finish_s[1], 20.0, 1e-6);
  // A: 20 s at 50 B/s = 1000 done; remaining 1000 at 100 B/s = 10 s more.
  EXPECT_NEAR(out.flow_finish_s[0], 30.0, 1e-6);
}

TEST(FlowSim, StaggeredStartsAreHonoured) {
  const std::vector<Flow> flows{{0, 1, 1000.0, 0.0, true},
                                {0, 2, 1000.0, 100.0, true}};
  const auto out = simulate_flows(flows, caps(100.0), 3);
  // No overlap at all: first finishes at 10, second runs 100..110.
  EXPECT_NEAR(out.flow_finish_s[0], 10.0, 1e-6);
  EXPECT_NEAR(out.flow_finish_s[1], 110.0, 1e-6);
}

TEST(FlowSim, SelfFlowsCostOnlyLatency) {
  const std::vector<Flow> flows{{1, 1, 1e9, 0.0, true}};
  const auto out = simulate_flows(flows, caps(100.0, 0.0, 0.25), 2);
  EXPECT_NEAR(out.flow_finish_s[0], 0.25, 1e-9);
}

TEST(FlowSim, RejectsBadInput) {
  EXPECT_THROW(simulate_flows({{0, 5, 10.0, 0.0, true}}, caps(), 2),
               CheckError);
  EXPECT_THROW(simulate_flows({}, LinkCaps{.nic_out_bps = 0}, 2),
               CheckError);
}

// --- exchange-plan integration --------------------------------------

TEST(FlowSim, BalancedPlanFinishesFasterThanNaive) {
  // The network-level consequence of Algorithm 1's balance guarantee:
  // with equal per-rank volume, the balanced exchange's incast is even
  // and its makespan beats the naive random-destination exchange, whose
  // most-oversubscribed receiver sets the finish line.
  const int m = 32;
  const std::size_t quota = 16;
  const double bytes = 1000.0;
  const shuffle::ExchangePlan plan(7, 0, m, quota);
  const auto balanced =
      simulate_flows(flows_from_plan(plan, bytes), caps(1000.0), m);
  const auto naive = simulate_flows(flows_naive(m, quota, bytes, 7),
                                    caps(1000.0), m);
  EXPECT_LT(balanced.makespan_s, naive.makespan_s);
  // Balanced: every rank sends and receives exactly quota * bytes at the
  // NIC rate.
  EXPECT_NEAR(balanced.makespan_s, quota * bytes / 1000.0, 1e-6);
}

TEST(FlowSim, HierarchicalPlanRelievesTheFabric) {
  const int groups = 4;
  const int gsize = 8;
  const std::size_t quota = 8;
  const double bytes = 1000.0;
  // Tight fabric: flat all-to-all is fabric-bound; hierarchical keeps
  // half its rounds off the fabric.
  const LinkCaps tight = caps(1000.0, /*fabric=*/4000.0);
  const shuffle::ExchangePlan flat(7, 0, groups * gsize, quota);
  shuffle::ExchangePlan hier;
  hier.rebuild_grouped(7, 0, groups, gsize, quota, /*intra=*/0.5);
  const auto flat_out =
      simulate_flows(flows_from_plan(flat, bytes), tight, groups * gsize);
  const auto hier_out = simulate_flows(
      flows_from_hierarchical_plan(hier, gsize, bytes), tight,
      groups * gsize);
  EXPECT_LT(hier_out.makespan_s, flat_out.makespan_s);
}

TEST(FlowSim, RingAllreduceClosedForm) {
  const auto c = caps(100.0, 0.0, 0.001);
  // 4 ranks, 1000 bytes: volume 2*(3/4)*1000 = 1500 over 100 B/s = 15 s,
  // plus 6 message latencies.
  EXPECT_NEAR(ring_allreduce_time(4, 1000.0, c), 15.0 + 0.006, 1e-9);
  EXPECT_DOUBLE_EQ(ring_allreduce_time(1, 1000.0, c), 0.0);
}

}  // namespace
}  // namespace dshuf::netsim
