// Flow-level network simulator.
//
// The analytic perf model (dshuf::perf) asserts how the exchange behaves
// under contention; this module CHECKS such claims with a discrete-event,
// max-min-fair flow simulation — the standard abstraction for
// coarse-grained datacentre network studies. Each message is a flow
// (src, dst, bytes, start). Three link classes constrain rates:
//   * each rank's NIC egress (injection bandwidth),
//   * each rank's NIC ingress (ejection bandwidth),
//   * one shared fabric pool (bisection) used by flows flagged as
//     crossing it (intra-node/-group flows bypass it).
// Rates follow max-min fairness via progressive filling, recomputed at
// every flow arrival/completion. Per-message latency delays a flow's
// start. Self-flows (src == dst) complete after latency without touching
// any link.
//
// Uses: exchange makespans for Algorithm-1 vs naive vs hierarchical plans
// (bench_ext_netsim), and cross-validation of the analytic congestion
// factor.
#pragma once

#include <cstdint>
#include <vector>

#include "shuffle/exchange_plan.hpp"

namespace dshuf::netsim {

struct LinkCaps {
  double nic_out_bps = 1e9;
  double nic_in_bps = 1e9;
  /// Aggregate fabric (bisection) capacity shared by fabric-crossing
  /// flows; 0 = unconstrained fabric.
  double fabric_bps = 0;
  /// Fixed startup latency per flow (software + wire), seconds.
  double per_message_latency_s = 0;
};

struct Flow {
  int src = 0;
  int dst = 0;
  double bytes = 0;
  double start_s = 0;
  bool uses_fabric = true;
};

struct SimOutcome {
  /// Completion time of each flow (input order).
  std::vector<double> flow_finish_s;
  /// Last completion per rank, over flows it sends or receives.
  std::vector<double> rank_finish_s;
  /// max over flows (the exchange makespan).
  double makespan_s = 0;
};

/// Simulate all flows to completion. `ranks` bounds src/dst. Runs on the
/// incremental event-driven FlowEngine (see netsim/flow_engine.hpp):
/// arrivals and completions re-fill only the touched contention component
/// instead of recomputing every rate, which is what makes 4096-rank
/// epochs affordable.
SimOutcome simulate_flows(const std::vector<Flow>& flows,
                          const LinkCaps& caps, int ranks);

/// Flows for one epoch of the balanced Algorithm-1 exchange: one message
/// per (round, rank), all injected at t = 0.
std::vector<Flow> flows_from_plan(const shuffle::ExchangePlan& plan,
                                  double bytes_per_sample);

/// Flows for a grouped plan (ExchangePlan::rebuild_grouped) whose groups
/// hold `group_size` contiguous ranks: intra-group messages bypass the
/// fabric (they ride node-local links).
std::vector<Flow> flows_from_hierarchical_plan(
    const shuffle::ExchangePlan& plan, int group_size,
    double bytes_per_sample);

/// Flows for the naive uncontrolled exchange: `quota` messages per rank
/// to independently random destinations (seeded).
std::vector<Flow> flows_naive(int ranks, std::size_t quota,
                              double bytes_per_sample, std::uint64_t seed);

/// Closed-form check value: time for a ring allreduce of `bytes` over
/// `ranks` NICs (2 * (M-1)/M * bytes per NIC direction).
double ring_allreduce_time(int ranks, double bytes, const LinkCaps& caps);

}  // namespace dshuf::netsim
