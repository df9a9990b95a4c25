// Chaos tests for the robust PLS exchange: seeded fault schedules swept
// over the harness of chaos_harness.hpp, asserting the protocol's core
// invariants (equivalence, conservation, balance, determinism).
#include "chaos_harness.hpp"

#include <gtest/gtest.h>

namespace dshuf::chaos {
namespace {

// ---------------------------------------------------------------------------
// Equivalence: faults that never LOSE a message (delay, reorder, duplicate)
// must leave the result bit-identical to the sequential PartialLocalShuffler
// — retries, duplicate suppression, and late arrivals are all invisible.

comm::FaultSpec no_drop_spec() {
  comm::FaultSpec spec;
  spec.delay_prob = 0.6;
  spec.min_delay_us = 100;
  spec.max_delay_us = 8'000;  // << the 40 ms ack_timeout margin
  spec.dup_prob = 0.3;
  return spec;
}

TEST(ChaosExchange, DelayReorderDupKeepsBitIdenticalShards) {
  for (int m : {2, 4, 7}) {
    for (double q : {0.3, 1.0}) {
      for (std::uint64_t fault_seed : {1ULL, 42ULL}) {
        ChaosConfig cfg;
        cfg.n = static_cast<std::size_t>(m) * 12;
        cfg.m = m;
        cfg.q = q;
        cfg.epochs = 2;
        cfg.seed = 20'22;
        cfg.fault_seed = fault_seed;
        cfg.spec = no_drop_spec();
        const auto result = run_chaos_exchange(cfg);
        const auto reference = sequential_reference(cfg);
        EXPECT_EQ(result.shards, reference)
            << "m=" << m << " q=" << q << " fault_seed=" << fault_seed;
        expect_conservation(result.shards, cfg.n);
        // Without drops every round commits on both sides.
        for (const auto& per_rank : result.outcomes) {
          for (const auto& o : per_rank) {
            EXPECT_EQ(o.sends_committed, o.rounds);
            EXPECT_EQ(o.recvs_committed, o.rounds);
            EXPECT_EQ(o.send_fallbacks, 0U);
            EXPECT_EQ(o.recv_fallbacks, 0U);
          }
        }
      }
    }
  }
}

TEST(ChaosExchange, PureDelayInjectsAndStillMatches) {
  ChaosConfig cfg;
  cfg.spec.delay_prob = 1.0;
  cfg.spec.min_delay_us = 500;
  cfg.spec.max_delay_us = 10'000;
  const auto result = run_chaos_exchange(cfg);
  EXPECT_GT(result.faults.delayed, 0U);
  EXPECT_EQ(result.shards, sequential_reference(cfg));
}

TEST(ChaosExchange, StalledRanksStillMatch) {
  // A stall is one long per-rank delay; with the 800 ms receive deadline it
  // only slows the epoch, never changes its outcome.
  ChaosConfig cfg;
  cfg.m = 4;
  cfg.spec.stall_prob = 0.5;
  cfg.spec.stall_us = 60'000;
  const auto result = run_chaos_exchange(cfg);
  EXPECT_GT(result.faults.stalled, 0U);
  EXPECT_EQ(result.shards, sequential_reference(cfg));
}

TEST(ChaosExchange, FaultFreeRobustPathMatchesSequentialDriver) {
  // The DATA/ACK + reconciliation protocol itself must be a no-op wrapper
  // when nothing goes wrong.
  ChaosConfig cfg;
  cfg.m = 5;
  cfg.n = 60;
  cfg.q = 0.4;
  cfg.epochs = 3;
  const auto result = run_chaos_exchange(cfg);  // zero FaultSpec
  EXPECT_EQ(result.shards, sequential_reference(cfg));
  EXPECT_EQ(result.faults.dropped, 0U);
  for (const auto& per_rank : result.outcomes) {
    for (const auto& o : per_rank) EXPECT_EQ(o.retries, 0U);
  }
}

// ---------------------------------------------------------------------------
// Drops: rounds may fail, but no sample may ever be lost or duplicated, the
// per-epoch drift stays within the quota, and the epoch terminates inside
// its deadline budget.

TEST(ChaosExchange, DropsConserveEverySample) {
  for (std::uint64_t fault_seed : {3ULL, 17ULL, 99ULL}) {
    ChaosConfig cfg;
    cfg.m = 4;
    cfg.n = 48;
    cfg.q = 0.5;
    cfg.epochs = 3;
    cfg.fault_seed = fault_seed;
    cfg.spec.drop_prob = 0.3;
    cfg.unlimited_capacity = true;
    const auto result = run_chaos_exchange(cfg);
    expect_conservation(result.shards, cfg.n);
    expect_balance_bound(result);
    EXPECT_GT(result.faults.dropped, 0U) << "fault_seed=" << fault_seed;
    // Retries must be doing real work under a 30% drop rate.
    std::size_t retries = 0;
    for (const auto& per_rank : result.outcomes) {
      for (const auto& o : per_rank) retries += o.retries;
    }
    EXPECT_GT(retries, 0U);
  }
}

TEST(ChaosExchange, SendAndRecvFallbacksAgree) {
  // Global bookkeeping must balance: every round is either committed or
  // fallen back on BOTH sides, and the totals line up — receiver commits
  // equal sender commits, receiver fallbacks equal sender fallbacks.
  ChaosConfig cfg;
  cfg.m = 4;
  cfg.n = 48;
  cfg.q = 0.5;
  cfg.fault_seed = 7;
  cfg.spec.drop_prob = 0.5;
  cfg.unlimited_capacity = true;
  const auto result = run_chaos_exchange(cfg);
  expect_conservation(result.shards, cfg.n);
  for (const auto& per_rank : result.outcomes) {
    std::size_t sends = 0;
    std::size_t recvs = 0;
    std::size_t sfall = 0;
    std::size_t rfall = 0;
    for (const auto& o : per_rank) {
      EXPECT_EQ(o.sends_committed + o.send_fallbacks, o.rounds);
      EXPECT_EQ(o.recvs_committed + o.recv_fallbacks, o.rounds);
      sends += o.sends_committed;
      recvs += o.recvs_committed;
      sfall += o.send_fallbacks;
      rfall += o.recv_fallbacks;
    }
    EXPECT_EQ(sends, recvs) << "a sample committed on only one side";
    EXPECT_EQ(sfall, rfall);
  }
}

TEST(ChaosExchange, HeavyDropStillTerminatesAndConserves) {
  // At 90% drop most rounds exhaust their whole retry budget; the epoch
  // must still terminate within the deadline budget (ctest enforces the
  // wall-clock cap) and keep every sample somewhere.
  ChaosConfig cfg;
  cfg.m = 3;
  cfg.n = 24;
  cfg.q = 1.0;
  cfg.epochs = 2;
  cfg.fault_seed = 5;
  cfg.spec.drop_prob = 0.9;
  cfg.unlimited_capacity = true;
  const auto result = run_chaos_exchange(cfg);
  expect_conservation(result.shards, cfg.n);
  expect_balance_bound(result);
  std::size_t fallbacks = 0;
  for (const auto& per_rank : result.outcomes) {
    for (const auto& o : per_rank) fallbacks += o.send_fallbacks;
  }
  EXPECT_GT(fallbacks, 0U);
}

TEST(ChaosExchange, MixedFaultsConserve) {
  ChaosConfig cfg;
  cfg.m = 5;
  cfg.n = 60;
  cfg.q = 0.4;
  cfg.epochs = 2;
  cfg.fault_seed = 23;
  cfg.spec.drop_prob = 0.2;
  cfg.spec.dup_prob = 0.2;
  cfg.spec.delay_prob = 0.4;
  cfg.spec.min_delay_us = 100;
  cfg.spec.max_delay_us = 5'000;
  cfg.unlimited_capacity = true;
  const auto result = run_chaos_exchange(cfg);
  expect_conservation(result.shards, cfg.n);
  expect_balance_bound(result);
}

// ---------------------------------------------------------------------------
// Determinism: the whole chaos run is a function of (shuffle seed, fault
// seed) — rerunning it must reproduce shards AND bookkeeping exactly.

TEST(ChaosExchange, SameSeedsReproduceExactly) {
  ChaosConfig cfg;
  cfg.m = 4;
  cfg.n = 48;
  cfg.q = 0.5;
  cfg.epochs = 2;
  cfg.fault_seed = 11;
  cfg.spec.drop_prob = 0.3;
  cfg.spec.dup_prob = 0.2;
  cfg.spec.delay_prob = 0.3;
  cfg.spec.min_delay_us = 100;
  cfg.spec.max_delay_us = 4'000;
  cfg.unlimited_capacity = true;

  const auto a = run_chaos_exchange(cfg);
  const auto b = run_chaos_exchange(cfg);
  EXPECT_EQ(a.shards, b.shards);
  EXPECT_EQ(a.sizes_per_epoch, b.sizes_per_epoch);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t e = 0; e < a.outcomes.size(); ++e) {
    for (std::size_t w = 0; w < a.outcomes[e].size(); ++w) {
      EXPECT_EQ(a.outcomes[e][w].sends_committed,
                b.outcomes[e][w].sends_committed);
      EXPECT_EQ(a.outcomes[e][w].send_fallbacks,
                b.outcomes[e][w].send_fallbacks);
      EXPECT_EQ(a.outcomes[e][w].recvs_committed,
                b.outcomes[e][w].recvs_committed);
      EXPECT_EQ(a.outcomes[e][w].recv_fallbacks,
                b.outcomes[e][w].recv_fallbacks);
    }
  }
  EXPECT_EQ(a.faults.dropped, b.faults.dropped);
  EXPECT_EQ(a.faults.duplicated, b.faults.duplicated);

  // ...and a different fault seed must yield a different schedule.
  ChaosConfig other = cfg;
  other.fault_seed = 12;
  const auto c = run_chaos_exchange(other);
  expect_conservation(c.shards, other.n);
  EXPECT_NE(a.faults.dropped, c.faults.dropped);
}

// ---------------------------------------------------------------------------
// Frame wire: a no-drop schedule must match the sequential driver
// bit-for-bit with every round committed; under drops the bar is
// conservation plus exact replay, bookkeeping included.

TEST(ChaosExchangeWire, NoDropFaultsMatchSequential) {
  ChaosConfig cfg;
  cfg.m = 4;
  cfg.n = 48;
  cfg.q = 0.5;
  cfg.epochs = 2;
  cfg.fault_seed = 21;
  cfg.spec = no_drop_spec();
  const auto result = run_chaos_exchange(cfg);
  EXPECT_EQ(result.shards, sequential_reference(cfg));
  expect_conservation(result.shards, cfg.n);
  for (std::size_t e = 0; e < result.outcomes.size(); ++e) {
    for (const auto& o : result.outcomes[e]) {
      EXPECT_EQ(o.sends_committed, result.quota_per_epoch[e]);
      EXPECT_EQ(o.recvs_committed, result.quota_per_epoch[e]);
    }
  }
}

TEST(ChaosExchangeWire, DropsConserveAndReplay) {
  ChaosConfig cfg;
  cfg.m = 4;
  cfg.n = 48;
  cfg.q = 0.5;
  cfg.epochs = 3;
  cfg.fault_seed = 31;
  cfg.spec.drop_prob = 0.3;
  cfg.spec.dup_prob = 0.2;
  cfg.unlimited_capacity = true;
  const auto a = run_chaos_exchange(cfg);
  expect_conservation(a.shards, cfg.n);
  expect_balance_bound(a);
  // Same seeds -> exact replay, bookkeeping included.
  const auto b = run_chaos_exchange(cfg);
  EXPECT_EQ(a.shards, b.shards);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t e = 0; e < a.outcomes.size(); ++e) {
    for (std::size_t w = 0; w < a.outcomes[e].size(); ++w) {
      EXPECT_EQ(a.outcomes[e][w].sends_committed,
                b.outcomes[e][w].sends_committed);
      EXPECT_EQ(a.outcomes[e][w].send_fallbacks,
                b.outcomes[e][w].send_fallbacks);
      EXPECT_EQ(a.outcomes[e][w].recvs_committed,
                b.outcomes[e][w].recvs_committed);
      EXPECT_EQ(a.outcomes[e][w].recv_fallbacks,
                b.outcomes[e][w].recv_fallbacks);
      EXPECT_EQ(a.outcomes[e][w].retries, b.outcomes[e][w].retries);
    }
  }
}

// The exchange also carries real payloads; faults must not corrupt the
// id -> payload association.
TEST(ChaosExchange, PayloadsFollowTheirSamples) {
  const std::size_t n = 32;
  const int m = 4;
  auto shards = make_shards(n, m);
  std::vector<shuffle::ShardStore> stores;
  for (auto& s : shards) stores.emplace_back(std::move(s), 0);

  comm::FaultSpec spec = no_drop_spec();
  comm::World world(m);
  world.set_fault_plan(comm::FaultPlan(9, spec));
  const auto robust = default_robustness();

  std::vector<std::vector<std::pair<shuffle::SampleId, std::uint8_t>>>
      deposited(m);
  world.run([&](comm::Communicator& c) {
    auto& store = stores[static_cast<std::size_t>(c.rank())];
    auto payload = [](shuffle::SampleId id, std::vector<std::byte>& out) {
      // One marker byte derived from the id.
      out.push_back(std::byte{static_cast<std::uint8_t>(id * 7 + 3)});
    };
    auto deposit = [&](shuffle::SampleId id,
                       std::span<const std::byte> body) {
      ASSERT_EQ(body.size(), 1U);
      deposited[static_cast<std::size_t>(c.rank())].emplace_back(
          id, static_cast<std::uint8_t>(body[0]));
    };
    shuffle::run_pls_exchange_epoch(c, store, 1, 0, 0.5, n / m, payload,
                                    deposit, &robust);
  });
  for (const auto& per_rank : deposited) {
    EXPECT_FALSE(per_rank.empty());
    for (const auto& [id, marker] : per_rank) {
      EXPECT_EQ(marker, static_cast<std::uint8_t>(id * 7 + 3));
    }
  }
}

}  // namespace
}  // namespace dshuf::chaos
