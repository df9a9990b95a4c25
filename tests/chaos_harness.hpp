// Seeded chaos-test harness for the comm layer and the PLS exchange.
//
// A chaos run wires a fault-injected comm::World to the robust
// run_pls_exchange_epoch and sweeps epochs, collecting per-rank outcomes.
// Everything is reproducible from (shuffle seed, fault seed): the fault
// schedule is a pure function of the fault seed (comm/fault.hpp) and the
// retry/deadline margins are sized so the protocol's decisions depend only
// on WHICH messages the plan drops, not on thread scheduling. Tests assert
// the core invariants on the result:
//
//   * conservation — no sample globally lost or duplicated, ever;
//   * equivalence  — with drops disabled, shards bit-identical to the
//                    sequential PartialLocalShuffler;
//   * balance      — per-epoch shard drift bounded by the exchange quota;
//   * determinism  — identical seeds => identical final shards.
#pragma once

#include <gtest/gtest.h>

#include <mutex>
#include <set>
#include <vector>

#include "comm/fault.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"

namespace dshuf::chaos {

using shuffle::SampleId;

inline std::vector<std::vector<SampleId>> make_shards(std::size_t n,
                                                      int workers) {
  std::vector<std::vector<SampleId>> shards(
      static_cast<std::size_t>(workers));
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % static_cast<std::size_t>(workers)].push_back(
        static_cast<SampleId>(i));
  }
  return shards;
}

/// Robustness budget with margins comfortably above the harness's injected
/// delays (<= ~10 ms) so round outcomes are functions of the drop pattern
/// alone.
inline shuffle::ExchangeRobustness default_robustness() {
  shuffle::ExchangeRobustness r;
  r.ack_timeout = std::chrono::milliseconds(40);
  r.max_attempts = 4;
  r.backoff = 2.0;
  r.recv_deadline = std::chrono::milliseconds(800);
  r.poll_interval = std::chrono::microseconds(200);
  return r;
}

struct ChaosConfig {
  std::size_t n = 64;          ///< dataset size (dealt round-robin)
  int m = 4;                   ///< ranks
  double q = 0.3;              ///< exchange fraction
  std::size_t epochs = 2;
  std::uint64_t seed = 1;        ///< shuffle seed (plans, picks, shuffles)
  std::uint64_t fault_seed = 1;  ///< fault-schedule seed
  comm::FaultSpec spec;
  shuffle::ExchangeRobustness robust = default_robustness();
  /// Unlimited store capacity: required for drop scenarios, where shard
  /// sizes may drift beyond the fault-free (1+Q) bound across epochs.
  bool unlimited_capacity = false;
};

struct ChaosResult {
  std::vector<std::vector<SampleId>> initial;            // pre-run shards
  std::vector<std::vector<SampleId>> shards;             // final shard ids
  std::vector<std::vector<shuffle::ExchangeOutcome>> outcomes;  // [epoch][rank]
  std::vector<std::vector<std::size_t>> sizes_per_epoch;  // [epoch][rank]
  std::vector<std::size_t> quota_per_epoch;
  comm::FaultStats faults;
};

/// Run `epochs` robust exchange epochs (plus the caller-owned post-exchange
/// local shuffle, applied here exactly as the sequential driver does) over
/// a fault-injected world.
inline ChaosResult run_chaos_exchange(const ChaosConfig& cfg) {
  ChaosResult result;
  result.initial = make_shards(cfg.n, cfg.m);

  auto shards = result.initial;
  std::vector<std::size_t> initial_sizes;
  std::size_t min_shard = shards.empty() ? 0 : shards[0].size();
  for (const auto& s : shards) min_shard = std::min(min_shard, s.size());
  const std::size_t quota0 = shuffle::exchange_quota(min_shard, cfg.q);
  std::vector<shuffle::ShardStore> stores;
  stores.reserve(shards.size());
  for (auto& s : shards) {
    initial_sizes.push_back(s.size());
    const std::size_t cap =
        cfg.unlimited_capacity ? 0 : s.size() + quota0;
    stores.emplace_back(std::move(s), cap);
  }

  comm::World world(cfg.m);
  world.set_fault_plan(comm::FaultPlan(cfg.fault_seed, cfg.spec));

  result.outcomes.resize(cfg.epochs);
  result.sizes_per_epoch.resize(cfg.epochs);
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    // All ranks agree on the epoch's quota from the (globally known)
    // minimum shard size; under drift the harness recomputes it between
    // world runs — the distributed analogue is one tiny allreduce.
    std::size_t global_min = stores[0].size();
    for (const auto& s : stores) {
      global_min = std::min(global_min, s.size());
    }
    result.quota_per_epoch.push_back(
        shuffle::exchange_quota(global_min, cfg.q));

    std::vector<shuffle::ExchangeOutcome> per_rank(
        static_cast<std::size_t>(cfg.m));
    world.run([&](comm::Communicator& c) {
      auto& store = stores[static_cast<std::size_t>(c.rank())];
      auto outcome = shuffle::run_pls_exchange_epoch(
          c, store, cfg.seed, epoch, cfg.q, global_min,
          /*payload=*/nullptr, /*deposit=*/nullptr, &cfg.robust);
      shuffle::post_exchange_local_shuffle(cfg.seed, epoch, c.rank(),
                                           store.mutable_ids());
      per_rank[static_cast<std::size_t>(c.rank())] = outcome;
    });
    result.outcomes[epoch] = std::move(per_rank);
    for (const auto& s : stores) {
      result.sizes_per_epoch[epoch].push_back(s.size());
    }
  }

  result.faults = world.fault_stats();
  for (auto& s : stores) result.shards.push_back(s.ids());
  return result;
}

/// Union of all shards must be exactly {0, ..., n-1}: nothing lost,
/// nothing duplicated — the invariant that must survive ANY fault schedule.
inline void expect_conservation(
    const std::vector<std::vector<SampleId>>& shards, std::size_t n) {
  std::multiset<SampleId> all;
  for (const auto& s : shards) all.insert(s.begin(), s.end());
  ASSERT_EQ(all.size(), n) << "sample count changed";
  EXPECT_EQ(std::set<SampleId>(all.begin(), all.end()).size(), n)
      << "a sample was duplicated (and another lost)";
  if (n > 0) {
    EXPECT_EQ(*all.begin(), 0U);
    EXPECT_EQ(*all.rbegin(), n - 1);
  }
}

/// Each epoch moves at most `quota` samples in and out of a shard, so the
/// per-epoch drift is bounded by the quota even when rounds fail.
inline void expect_balance_bound(const ChaosResult& result) {
  std::vector<std::size_t> prev;
  for (const auto& s : result.initial) prev.push_back(s.size());
  for (std::size_t e = 0; e < result.sizes_per_epoch.size(); ++e) {
    const auto quota = result.quota_per_epoch[e];
    for (std::size_t w = 0; w < prev.size(); ++w) {
      const auto now = result.sizes_per_epoch[e][w];
      const auto drift = now > prev[w] ? now - prev[w] : prev[w] - now;
      EXPECT_LE(drift, quota)
          << "rank " << w << " drifted by " << drift << " in epoch " << e;
    }
    prev = result.sizes_per_epoch[e];
  }
}

/// Reference: final shards of the sequential PartialLocalShuffler after the
/// same number of epochs. Valid comparison only for no-drop fault specs.
inline std::vector<std::vector<SampleId>> sequential_reference(
    const ChaosConfig& cfg) {
  shuffle::PartialLocalShuffler pls(make_shards(cfg.n, cfg.m), cfg.q,
                                    cfg.seed);
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    pls.begin_epoch(epoch);
  }
  std::vector<std::vector<SampleId>> out;
  for (const auto& s : pls.stores()) out.push_back(s.ids());
  return out;
}

}  // namespace dshuf::chaos
