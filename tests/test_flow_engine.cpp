// Differential and property tests for the incremental max-min flow
// engine. simulate_flows now runs on FlowEngine; simulate_flows_reference
// (flow_reference_oracle.hpp) is the original recompute-everything loop,
// kept as the semantic oracle.
// Anyone touching the engine's tolerances must keep the two in agreement
// here before trusting any BENCH_scale number.
#include "netsim/flow_engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "flow_reference_oracle.hpp"
#include "netsim/flowsim.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace dshuf::netsim {
namespace {

void expect_same_outcome(const SimOutcome& got, const SimOutcome& want) {
  ASSERT_EQ(got.flow_finish_s.size(), want.flow_finish_s.size());
  for (std::size_t i = 0; i < got.flow_finish_s.size(); ++i) {
    const double scale = std::max(1.0, std::abs(want.flow_finish_s[i]));
    EXPECT_NEAR(got.flow_finish_s[i], want.flow_finish_s[i], 1e-6 * scale)
        << "flow " << i;
  }
  ASSERT_EQ(got.rank_finish_s.size(), want.rank_finish_s.size());
  for (std::size_t r = 0; r < got.rank_finish_s.size(); ++r) {
    const double scale = std::max(1.0, std::abs(want.rank_finish_s[r]));
    EXPECT_NEAR(got.rank_finish_s[r], want.rank_finish_s[r], 1e-6 * scale)
        << "rank " << r;
  }
  EXPECT_NEAR(got.makespan_s, want.makespan_s,
              1e-6 * std::max(1.0, want.makespan_s));
}

std::vector<Flow> random_flows(std::uint64_t seed, int ranks, int count,
                               bool staggered) {
  Rng rng(seed);
  std::vector<Flow> flows;
  flows.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Flow f;
    f.src = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(ranks)));
    f.dst = static_cast<int>(rng.uniform_u64(static_cast<std::uint64_t>(ranks)));
    // Mix of sizes spanning three orders of magnitude, plus the empty
    // control-message case.
    const auto kind = rng.uniform_u64(8);
    f.bytes = kind == 0 ? 0.0 : std::floor(rng.uniform() * 1e6) + 1;
    f.start_s = staggered ? rng.uniform() * 0.05 : 0.0;
    f.uses_fabric = rng.uniform_u64(4) != 0;
    flows.push_back(f);
  }
  return flows;
}

TEST(FlowEngineDifferential, MatchesReferenceAllAtOnce) {
  LinkCaps caps;
  caps.nic_out_bps = 1e9;
  caps.nic_in_bps = 1e9;
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    const auto flows = random_flows(seed, 12, 160, /*staggered=*/false);
    expect_same_outcome(simulate_flows(flows, caps, 12),
                        simulate_flows_reference(flows, caps, 12));
  }
}

TEST(FlowEngineDifferential, MatchesReferenceStaggeredArrivals) {
  LinkCaps caps;
  caps.nic_out_bps = 4e8;
  caps.nic_in_bps = 2e8;
  caps.per_message_latency_s = 1e-4;
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL, 14ULL}) {
    const auto flows = random_flows(seed, 10, 120, /*staggered=*/true);
    expect_same_outcome(simulate_flows(flows, caps, 10),
                        simulate_flows_reference(flows, caps, 10));
  }
}

TEST(FlowEngineDifferential, MatchesReferenceUnderFabricContention) {
  LinkCaps caps;
  caps.nic_out_bps = 1e9;
  caps.nic_in_bps = 1e9;
  // Fabric far below aggregate NIC capacity — every fabric flow contends.
  caps.fabric_bps = 2e8;
  for (std::uint64_t seed : {21ULL, 22ULL, 23ULL}) {
    const auto flows = random_flows(seed, 8, 100, /*staggered=*/true);
    expect_same_outcome(simulate_flows(flows, caps, 8),
                        simulate_flows_reference(flows, caps, 8));
  }
}

// Pins the documented LinkCaps contract: fabric_bps = 0 means NO fabric
// link at all (unconstrained), not a zero-capacity fabric. A huge finite
// fabric must agree with the absent one.
TEST(FlowEngineCaps, FabricZeroMeansUnconstrained) {
  const auto flows = random_flows(31, 8, 80, /*staggered=*/false);
  LinkCaps none;
  none.fabric_bps = 0;
  LinkCaps huge = none;
  huge.fabric_bps = 1e18;
  const auto a = simulate_flows(flows, none, 8);
  const auto b = simulate_flows(flows, huge, 8);
  expect_same_outcome(a, b);

  LinkCaps tight = none;
  tight.fabric_bps = 1e7;  // well under one NIC — must slow things down
  const auto c = simulate_flows(flows, tight, 8);
  EXPECT_GT(c.makespan_s, a.makespan_s * 2);
}

// Pins the self-flow contract: src == dst never touches a link and
// completes after exactly the per-message latency, regardless of how
// overloaded the rank's NICs are.
TEST(FlowEngineCaps, SelfFlowsAreLatencyOnly) {
  LinkCaps caps;
  caps.nic_out_bps = 1e3;  // absurdly slow NICs
  caps.nic_in_bps = 1e3;
  caps.per_message_latency_s = 2e-3;
  std::vector<Flow> flows;
  flows.push_back(Flow{0, 0, 1e12, 0.5, true});   // giant self flow
  flows.push_back(Flow{1, 1, 0.0, 0.25, false});  // empty self flow
  const auto out = simulate_flows(flows, caps, 2);
  EXPECT_DOUBLE_EQ(out.flow_finish_s[0], 0.5 + 2e-3);
  EXPECT_DOUBLE_EQ(out.flow_finish_s[1], 0.25 + 2e-3);
  const auto ref = simulate_flows_reference(flows, caps, 2);
  expect_same_outcome(out, ref);
}

// --- closed forms ----------------------------------------------------
// Flow sets small enough to solve by hand, held against both
// simulate_flows and the reference oracle: the oracle the differential
// tests trust is itself pinned to numbers that do not come from the
// engine.

void expect_finishes(const std::vector<Flow>& flows, const LinkCaps& caps,
                     int ranks, const std::vector<double>& want) {
  const std::pair<const char*, SimOutcome> runs[] = {
      {"simulate_flows", simulate_flows(flows, caps, ranks)},
      {"reference", simulate_flows_reference(flows, caps, ranks)},
  };
  const double makespan = *std::max_element(want.begin(), want.end());
  for (const auto& [who, out] : runs) {
    ASSERT_EQ(out.flow_finish_s.size(), want.size()) << who;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_NEAR(out.flow_finish_s[i], want[i], 1e-9)
          << who << ", flow " << i;
    }
    EXPECT_NEAR(out.makespan_s, makespan, 1e-9) << who;
  }
}

// Alone on its path, a flow runs at the slower of its two NICs after the
// per-message latency: 1.0 + 0.25 + 20 B / 40 B/s.
TEST(FlowClosedForm, SingleFlowIsLatencyPlusBytesOverTheSlowerNic) {
  LinkCaps caps;
  caps.nic_out_bps = 100;
  caps.nic_in_bps = 40;
  caps.per_message_latency_s = 0.25;
  expect_finishes({Flow{0, 1, 20, 1.0, true}}, caps, 2, {1.75});
}

// Three senders into one receiver split its 30 B/s ingress three ways.
TEST(FlowClosedForm, IncastSharesTheReceiversNic) {
  LinkCaps caps;
  caps.nic_out_bps = 100;
  caps.nic_in_bps = 30;
  expect_finishes({Flow{1, 0, 30, 0, true}, Flow{2, 0, 30, 0, true},
                   Flow{3, 0, 30, 0, true}},
                  caps, 4, {3.0, 3.0, 3.0});
}

// Rank 0's 10 B/s egress carries one fabric-bound flow (2 B/s) and one
// local flow. Max-min gives the local flow the 8 B/s the fabric leaves,
// not an even 5, and all 10 once the fabric flow is done at t = 1:
// 8 B by then, the last 10 B by t = 2.
TEST(FlowClosedForm, MaxMinHandsLeftoverCapacityToTheUnboundFlow) {
  LinkCaps caps;
  caps.nic_out_bps = 10;
  caps.nic_in_bps = 10;
  caps.fabric_bps = 2;
  expect_finishes({Flow{0, 1, 2, 0, true}, Flow{0, 2, 18, 0, false}}, caps,
                  3, {1.0, 2.0});
}

// The fabric's 4 B/s is split between the two flows that cross it; the
// flow that stays off the fabric runs at NIC speed.
TEST(FlowClosedForm, FabricCapSplitsAmongCrossingFlowsOnly) {
  LinkCaps caps;
  caps.nic_out_bps = 10;
  caps.nic_in_bps = 10;
  caps.fabric_bps = 4;
  expect_finishes({Flow{0, 1, 4, 0, true}, Flow{2, 3, 4, 0, true},
                   Flow{4, 5, 10, 0, false}},
                  caps, 6, {2.0, 2.0, 1.0});
}

// The first flow has rank 2's ingress alone for a second (10 B), shares
// it 5/5 with a flow arriving at t = 1 until that one's 5 B are through
// at t = 2, and moves its last 5 B at full speed by t = 2.5.
TEST(FlowClosedForm, LateArrivalSplitsTheRemainingTransfer) {
  LinkCaps caps;
  caps.nic_out_bps = 100;
  caps.nic_in_bps = 10;
  expect_finishes({Flow{0, 2, 20, 0, true}, Flow{1, 2, 5, 1.0, true}}, caps,
                  3, {2.5, 2.0});
}

TEST(FlowEngine, ScopedRefillsTouchOnlyTheDirtyComponent) {
  // Two link-disjoint flows: admitting both costs one settle each, and
  // retiring the first must not re-fill the other's component.
  FlowEngine eng({1.0, 1.0, 1.0, 1.0});
  eng.add_flow(1.0, {0, 1});
  eng.add_flow(2.0, {2, 3});
  std::vector<std::pair<FlowEngine::FlowId, double>> done;
  eng.advance_to(10.0, done);
  ASSERT_EQ(done.size(), 2U);
  EXPECT_DOUBLE_EQ(done[0].second, 1.0);
  EXPECT_DOUBLE_EQ(done[1].second, 2.0);
  // One refill covering both admissions (2 flows settled); the first
  // completion dirties links with no live flows left, the second likewise
  // — no survivor is ever re-rated.
  EXPECT_EQ(eng.refill_work(), 2U);
  EXPECT_EQ(eng.active_flows(), 0U);
}

TEST(FlowEngine, EqualFlowsRetireInAdmissionOrder) {
  FlowEngine eng({10.0});
  const auto a = eng.add_flow(5.0, {0});
  const auto b = eng.add_flow(5.0, {0});
  const auto c = eng.add_flow(5.0, {0});
  std::vector<std::pair<FlowEngine::FlowId, double>> done;
  eng.advance_to(100.0, done);
  ASSERT_EQ(done.size(), 3U);
  EXPECT_EQ(done[0].first, a);
  EXPECT_EQ(done[1].first, b);
  EXPECT_EQ(done[2].first, c);
  // All three share one link at 10 B/s: 15 bytes total => 1.5 s.
  EXPECT_DOUBLE_EQ(done[2].second, 1.5);
}

TEST(FlowEngine, SharedLinkRatesRebalanceOnCompletion) {
  // One short and one long flow share a link; once the short one leaves,
  // the survivor takes the whole capacity.
  FlowEngine eng({10.0});
  eng.add_flow(5.0, {0});   // done at t=1 (5 B at 5 B/s)
  eng.add_flow(15.0, {0});  // 5 B by t=1, then 10 B at 10 B/s => t=2
  std::vector<std::pair<FlowEngine::FlowId, double>> done;
  eng.advance_to(100.0, done);
  ASSERT_EQ(done.size(), 2U);
  EXPECT_DOUBLE_EQ(done[0].second, 1.0);
  EXPECT_DOUBLE_EQ(done[1].second, 2.0);
}

TEST(FlowEngine, RefusesRewindsAndBadFlows) {
  FlowEngine eng({1.0});
  std::vector<std::pair<FlowEngine::FlowId, double>> done;
  eng.advance_to(1.0, done);
  EXPECT_THROW(eng.advance_to(0.5, done), CheckError);
  EXPECT_THROW(eng.add_flow(1.0, {}), CheckError);
  EXPECT_THROW(eng.add_flow(-1.0, {0}), CheckError);
  EXPECT_THROW(eng.add_flow(1.0, {7}), CheckError);
}

}  // namespace
}  // namespace dshuf::netsim
