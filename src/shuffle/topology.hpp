// Explicit network topology for the exchange — the knob Section V-F turns.
//
// The paper's hierarchical scheme exists because real clusters are not a
// flat crossbar: ranks within a node/rack share a fast local fabric while
// traffic between groups squeezes through a far thinner uplink. Topology
// captures exactly that two-level shape — G groups of S ranks, an
// intra-group NIC bandwidth and an inter-group uplink bandwidth — plus the
// two scheme knobs built on it:
//
//   * intra_fraction: the share of exchange rounds constrained to the
//     identity group permutation (purely intra-group rounds);
//   * leader_aggregation: whether each group coalesces its fabric-crossing
//     frames at a group leader before they cross (Corgi²-style staging),
//     so the uplink sees G-1 aggregate trunks instead of S*(G-1) flows.
//
// Both drivers take the topology as an argument: the sequential
// PartialLocalShuffler in its constructor, the message-passing exchange
// (run_pls_exchange_epoch / PlsEpochExchange) per epoch. Either way the
// plan is ExchangePlan::rebuild_grouped when there is more than one group
// and the flat Algorithm-1 plan otherwise (plan_spec_for). Ranks are
// grouped contiguously (group_of(r) = r / group_size).
#pragma once

#include <cstdint>

namespace dshuf::shuffle {

struct Topology {
  int groups = 1;
  /// Ranks per group; 0 = derive as workers / groups at the point of use
  /// (the exchange checks divisibility).
  int group_size = 0;
  /// Per-rank NIC bandwidth inside a group, bytes/s.
  double intra_bw_bps = 1e9;
  /// Per-group uplink/downlink bandwidth to the global fabric, bytes/s.
  double inter_bw_bps = 1e9;
  /// Fraction of rounds restricted to the identity group permutation.
  double intra_fraction = 0.5;
  /// Coalesce fabric-crossing frames at group leaders before they cross.
  bool leader_aggregation = true;

  [[nodiscard]] int group_of(int rank) const { return rank / group_size; }
  /// Group leaders are the first rank of each group (rank g * group_size).
  [[nodiscard]] int leader_of(int group) const { return group * group_size; }

  /// Resolve group_size for `workers` ranks and check the shape divides.
  /// Returns a copy with group_size filled in.
  [[nodiscard]] Topology resolved_for(int workers) const;
};

}  // namespace dshuf::shuffle
