// Seed-sweep equivalence property: the two executions of partial local
// shuffling — the sequential PartialLocalShuffler and the message-passing
// run_pls_exchange_epoch over a real comm::World — must produce
// bit-identical shard contents for every point of a (workers, topology,
// Q, seed) grid, flat or grouped into any number of groups that divides
// the workers. This is the repo's strongest determinism claim: no random
// draw depends on execution order.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "comm/comm.hpp"
#include "netsim/virtual_comm.hpp"
#include "shuffle/exchange_plan.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"
#include "shuffle/topology.hpp"

namespace dshuf::shuffle {
namespace {

std::vector<std::vector<SampleId>> deal_shards(std::size_t n, int workers) {
  std::vector<std::vector<SampleId>> shards(
      static_cast<std::size_t>(workers));
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % static_cast<std::size_t>(workers)].push_back(
        static_cast<SampleId>(i));
  }
  return shards;
}

std::vector<std::vector<SampleId>> store_ids(
    const std::vector<ShardStore>& stores) {
  std::vector<std::vector<SampleId>> out;
  out.reserve(stores.size());
  for (const auto& s : stores) out.push_back(s.ids());
  return out;
}

/// Message-passing execution: one rank per shard on `world` (threaded or
/// virtual) running the exchange plus the shared post-exchange local
/// shuffle, for `epochs` epochs, under `topology`.
template <typename WorldT>
std::vector<std::vector<SampleId>> run_world_epochs(
    WorldT& world, std::vector<std::vector<SampleId>> shards, double q,
    std::uint64_t seed, std::size_t epochs,
    const std::optional<Topology>& topology) {
  std::size_t min_shard = shards[0].size();
  for (const auto& s : shards) min_shard = std::min(min_shard, s.size());
  const std::size_t quota = exchange_quota(min_shard, q);
  std::vector<ShardStore> stores;
  stores.reserve(shards.size());
  for (auto& s : shards) {
    const std::size_t cap = s.size() + quota;
    stores.emplace_back(std::move(s), cap);
  }
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) {
    world.run([&](comm::Communicator& c) {
      auto& store = stores[static_cast<std::size_t>(c.rank())];
      run_pls_exchange_epoch(c, store, seed, epoch, q, min_shard, nullptr,
                             nullptr, nullptr, nullptr, topology);
      post_exchange_local_shuffle(seed, epoch, c.rank(),
                                  store.mutable_ids());
    });
  }
  return store_ids(stores);
}

std::vector<std::vector<SampleId>> run_sequential_epochs(
    std::vector<std::vector<SampleId>> shards, double q, std::uint64_t seed,
    std::size_t epochs, const std::optional<Topology>& topology) {
  PartialLocalShuffler pls(std::move(shards), q, seed, topology);
  for (std::size_t epoch = 0; epoch < epochs; ++epoch) pls.begin_epoch(epoch);
  return store_ids(pls.stores());
}

TEST(EquivalenceSweep, BothDriversAgreeAcrossTheGrid) {
  constexpr std::size_t kEpochs = 2;
  for (int m : {1, 2, 4, 7}) {
    const std::size_t n = static_cast<std::size_t>(m) * 12;
    // Flat, then every group count that divides m — one group included,
    // which both drivers must treat as the flat plan.
    std::vector<std::optional<Topology>> topologies{std::nullopt};
    for (int g = 1; g <= m; ++g) {
      if (m % g != 0) continue;
      Topology t;
      t.groups = g;
      topologies.emplace_back(t);
    }
    for (const auto& topo : topologies) {
      comm::World world(m);
      for (double q : {0.0, 0.1, 0.3, 1.0}) {
        for (std::uint64_t seed : {11ULL, 97ULL}) {
          SCOPED_TRACE(::testing::Message()
                       << "m=" << m << " groups="
                       << (topo ? topo->groups : 0) << " q=" << q
                       << " seed=" << seed);
          EXPECT_EQ(run_world_epochs(world, deal_shards(n, m), q, seed,
                                     kEpochs, topo),
                    run_sequential_epochs(deal_shards(n, m), q, seed,
                                          kEpochs, topo))
              << "message-passing exchange diverged from the sequential "
                 "driver";
        }
      }
    }
  }

  // One paper-shaped point on the fiber backend: 64 ranks in 8 groups.
  Topology topo;
  topo.groups = 8;
  netsim::VirtualWorld world(64);
  EXPECT_EQ(run_world_epochs(world, deal_shards(64 * 12, 64), 0.3, 11,
                             kEpochs, topo),
            run_sequential_epochs(deal_shards(64 * 12, 64), 0.3, 11, kEpochs,
                                  topo))
      << "virtual-rank exchange diverged from the sequential driver at "
         "M=64, 8 groups";
}

TEST(EquivalenceSweep, RobustAndFastPathsAgreeOnPerfectFabric) {
  // Same world, no faults: the DATA/ACK protocol must land on exactly the
  // shards of the plain fire-and-wait path.
  const std::uint64_t seed = 31;
  const double q = 0.5;
  for (int m : {2, 5}) {
    const std::size_t n = static_cast<std::size_t>(m) * 10;
    comm::World world(m);
    const auto fast =
        run_world_epochs(world, deal_shards(n, m), q, seed, 2, std::nullopt);

    auto shards = deal_shards(n, m);
    const std::size_t min_shard = n / static_cast<std::size_t>(m);
    const std::size_t quota = exchange_quota(min_shard, q);
    std::vector<ShardStore> stores;
    for (auto& s : shards) {
      stores.emplace_back(std::move(s), min_shard + quota);
    }
    ExchangeRobustness robust;
    for (std::size_t epoch = 0; epoch < 2; ++epoch) {
      world.run([&](comm::Communicator& c) {
        auto& store = stores[static_cast<std::size_t>(c.rank())];
        run_pls_exchange_epoch(c, store, seed, epoch, q, min_shard,
                               nullptr, nullptr, &robust);
        post_exchange_local_shuffle(seed, epoch, c.rank(),
                                    store.mutable_ids());
      });
    }
    EXPECT_EQ(store_ids(stores), fast) << "m=" << m;
  }
}

}  // namespace
}  // namespace dshuf::shuffle
