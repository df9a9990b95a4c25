// Tests for the event-driven virtual-rank backend: the same exchange code
// that runs on comm::World's threads must run unmodified on
// netsim::VirtualWorld's fibers — with bit-identical shards — while
// virtual time, the flow-model network, and the fault oracle behave as
// documented.
#include "netsim/virtual_comm.hpp"

#include <cstring>
#include <set>

#include <gtest/gtest.h>

#include "comm/fault.hpp"
#include "obs/metrics.hpp"
#include "shuffle/exchange_plan.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"
#include "shuffle/topology.hpp"
#include "util/error.hpp"

namespace dshuf::netsim {
namespace {

using shuffle::SampleId;
using shuffle::ShardStore;

std::vector<std::vector<SampleId>> make_shards(std::size_t n,
                                               std::size_t workers) {
  std::vector<std::vector<SampleId>> shards(workers);
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % workers].push_back(static_cast<SampleId>(i));
  }
  return shards;
}

std::vector<ShardStore> make_stores(std::size_t n, int m, double q) {
  auto shards = make_shards(n, static_cast<std::size_t>(m));
  std::vector<ShardStore> stores;
  for (auto& s : shards) {
    const std::size_t cap =
        s.size() + shuffle::exchange_quota(n / static_cast<std::size_t>(m), q);
    stores.emplace_back(std::move(s), cap);
  }
  return stores;
}

TEST(VirtualWorld, CollectivesMatchTheSharedImplementation) {
  const int m = 32;
  VirtualWorld world(m);
  std::vector<std::vector<double>> sums(static_cast<std::size_t>(m));
  world.run([&](comm::Communicator& c) {
    const double v[2] = {static_cast<double>(c.rank()), 1.0};
    sums[static_cast<std::size_t>(c.rank())] = c.allreduce_sum(v);
  });
  const double expect = static_cast<double>(m * (m - 1)) / 2.0;
  for (const auto& s : sums) {
    ASSERT_EQ(s.size(), 2U);
    EXPECT_DOUBLE_EQ(s[0], expect);
    EXPECT_DOUBLE_EQ(s[1], static_cast<double>(m));
  }
}

TEST(VirtualWorld, TransferTimeFollowsTheFlowModel) {
  VirtualWorldOptions opts;
  opts.caps.nic_out_bps = 1e6;  // 1 MB/s
  opts.caps.nic_in_bps = 1e6;
  opts.caps.per_message_latency_s = 1e-3;
  VirtualWorld world(2, opts);
  std::uint64_t recv_at_us = 0;
  world.run([&](comm::Communicator& c) {
    if (c.rank() == 0) {
      c.send(1, 7, std::vector<std::byte>(1'000'000));
    } else {
      (void)c.recv(0, 7);
      recv_at_us = c.now_us();
    }
  });
  // 1 MB at 1 MB/s = 1 s on the wire, after 1 ms of latency.
  EXPECT_NEAR(static_cast<double>(recv_at_us), 1'001'000.0, 2.0);
  EXPECT_NEAR(static_cast<double>(world.now_us()), 1'001'000.0, 2.0);
  const auto stats = world.last_run_stats();
  EXPECT_EQ(stats.flows, 1U);
  EXPECT_GT(stats.context_switches, 0U);
}

TEST(VirtualWorld, BackoffAdvancesVirtualTimeNotWallTime) {
  VirtualWorld world(1);
  std::uint64_t before = 0;
  std::uint64_t after = 0;
  world.run([&](comm::Communicator& c) {
    before = c.now_us();
    c.backoff(std::chrono::seconds(3600));  // an hour of virtual time
    after = c.now_us();
  });
  EXPECT_GE(after - before, 3'600'000'000ULL);
  // Virtual time persists and stays monotone across runs.
  const std::uint64_t t1 = world.now_us();
  world.run([](comm::Communicator& c) { c.barrier(); });
  EXPECT_GE(world.now_us(), t1);
}

// The tentpole contract: the SAME epoch logic, bit-identical shards.
// Collectives are shared-implementation, point-to-point staging is
// deterministic on both backends, so not just the multisets but the exact
// post-exchange orderings must agree.
TEST(VirtualWorld, BitIdenticalShardsWithThreadedWorld) {
  const std::size_t n = 128;
  const int m = 16;
  const double q = 0.5;
  const std::uint64_t seed = 77;
  const std::size_t epochs = 3;

  auto threaded = make_stores(n, m, q);
  {
    comm::World world(m);
    for (std::size_t e = 0; e < epochs; ++e) {
      world.run([&](comm::Communicator& c) {
        shuffle::run_pls_exchange_epoch(
            c, threaded[static_cast<std::size_t>(c.rank())], seed, e, q,
            n / static_cast<std::size_t>(m));
        shuffle::post_exchange_local_shuffle(
            seed, e, c.rank(),
            threaded[static_cast<std::size_t>(c.rank())].mutable_ids());
      });
    }
  }

  auto virtualised = make_stores(n, m, q);
  {
    VirtualWorld world(m);
    for (std::size_t e = 0; e < epochs; ++e) {
      world.run([&](comm::Communicator& c) {
        shuffle::run_pls_exchange_epoch(
            c, virtualised[static_cast<std::size_t>(c.rank())], seed, e, q,
            n / static_cast<std::size_t>(m));
        shuffle::post_exchange_local_shuffle(
            seed, e, c.rank(),
            virtualised[static_cast<std::size_t>(c.rank())].mutable_ids());
      });
    }
  }

  for (int w = 0; w < m; ++w) {
    EXPECT_EQ(threaded[static_cast<std::size_t>(w)].ids(),
              virtualised[static_cast<std::size_t>(w)].ids())
        << "rank " << w;
  }
}

// Chaos over the virtual backend: the robust protocol must conserve every
// sample under drops, duplicates, delays, and stalls — with the schedule
// served by the virtual world's replay of the same fault oracle.
TEST(VirtualWorld, RobustExchangeConservesSamplesUnderFaults) {
  const std::size_t n = 96;
  const int m = 12;
  const double q = 0.5;

  comm::FaultSpec spec;
  spec.drop_prob = 0.05;
  spec.dup_prob = 0.05;
  spec.delay_prob = 0.3;
  spec.min_delay_us = 100;
  spec.max_delay_us = 3'000;
  spec.stall_prob = 0.2;
  spec.stall_us = 2'000;

  shuffle::ExchangeRobustness robust;
  robust.ack_timeout = std::chrono::milliseconds(10);
  robust.max_attempts = 6;
  robust.recv_deadline = std::chrono::milliseconds(400);
  robust.poll_interval = std::chrono::microseconds(200);

  auto stores = make_stores(n, m, q);
  VirtualWorld world(m);
  world.set_fault_plan(comm::FaultPlan(1234, spec));
  for (std::size_t e = 0; e < 2; ++e) {
    world.run([&](comm::Communicator& c) {
      shuffle::run_pls_exchange_epoch(
          c, stores[static_cast<std::size_t>(c.rank())], 5, e, q,
          n / static_cast<std::size_t>(m), nullptr, nullptr, &robust);
    });
  }

  std::multiset<SampleId> all;
  for (const auto& s : stores) all.insert(s.ids().begin(), s.ids().end());
  EXPECT_EQ(all.size(), n);
  EXPECT_EQ(std::set<SampleId>(all.begin(), all.end()).size(), n);

  const auto fs = world.fault_stats();
  EXPECT_GT(fs.submitted, 0U);
  // Every submitted copy either landed or was dropped; duplicates add an
  // extra landed copy each. Nothing is force-flushed on this backend —
  // fences wait delays out in virtual time instead.
  EXPECT_EQ(fs.delivered + fs.dropped, fs.submitted + fs.duplicated);
  EXPECT_EQ(fs.flushed, 0U);
}

// Same seed, same backend, two worlds: the virtual replay of the fault
// oracle must be deterministic end to end.
TEST(VirtualWorld, FaultScheduleReplaysExactly) {
  const std::size_t n = 48;
  const int m = 6;
  comm::FaultSpec spec;
  spec.drop_prob = 0.1;
  spec.dup_prob = 0.1;
  spec.delay_prob = 0.5;
  spec.max_delay_us = 2'000;

  shuffle::ExchangeRobustness robust;
  robust.ack_timeout = std::chrono::milliseconds(10);
  robust.recv_deadline = std::chrono::milliseconds(300);

  auto run_once = [&](std::vector<std::vector<SampleId>>& out) {
    auto stores = make_stores(n, m, 0.5);
    VirtualWorld world(m);
    world.set_fault_plan(comm::FaultPlan(42, spec));
    world.run([&](comm::Communicator& c) {
      shuffle::run_pls_exchange_epoch(
          c, stores[static_cast<std::size_t>(c.rank())], 3, 0, 0.5,
          n / static_cast<std::size_t>(m), nullptr, nullptr, &robust);
    });
    for (auto& s : stores) out.push_back(s.ids());
    return world.fault_stats();
  };

  std::vector<std::vector<SampleId>> a;
  std::vector<std::vector<SampleId>> b;
  const auto sa = run_once(a);
  const auto sb = run_once(b);
  EXPECT_EQ(a, b);
  EXPECT_EQ(sa.submitted, sb.submitted);
  EXPECT_EQ(sa.dropped, sb.dropped);
  EXPECT_EQ(sa.duplicated, sb.duplicated);
  EXPECT_EQ(sa.delayed, sb.delayed);
  EXPECT_EQ(sa.delivered, sb.delivered);
}

TEST(VirtualWorld, FenceWaitsOutDelayedTrafficInVirtualTime) {
  comm::FaultSpec spec;
  spec.delay_prob = 1.0;
  spec.min_delay_us = 5'000;
  spec.max_delay_us = 5'000;
  VirtualWorld world(2);
  world.set_fault_plan(comm::FaultPlan(7, spec));
  bool got = false;
  world.run([&](comm::Communicator& c) {
    if (c.rank() == 0) c.send(1, 3, std::vector<std::byte>(8));
    c.barrier();
    c.fence_faults();
    if (c.rank() == 1) {
      auto msg = c.poll(0, 3);
      got = msg.has_value();
    }
  });
  EXPECT_TRUE(got);
  EXPECT_GE(world.now_us(), 5'000U);  // the delay elapsed, virtually
  EXPECT_EQ(world.fault_stats().flushed, 0U);
}

TEST(VirtualWorld, TopologyThrottlesInterGroupTraffic) {
  shuffle::Topology topo;
  topo.groups = 2;
  topo.group_size = 4;
  topo.intra_bw_bps = 1e9;
  topo.inter_bw_bps = 1e6;  // uplink 1000x slower than NICs

  VirtualWorldOptions opts;
  opts.topology = topo;
  auto elapsed_us = [&](int dest) {
    VirtualWorld world(8, opts);
    world.run([&](comm::Communicator& c) {
      if (c.rank() == 0) c.send(dest, 1, std::vector<std::byte>(1'000'000));
      if (c.rank() == dest) (void)c.recv(0, 1);
    });
    return world.now_us();
  };
  const std::uint64_t intra = elapsed_us(1);  // same group: NIC speed
  const std::uint64_t inter = elapsed_us(4);  // crosses the uplink
  EXPECT_NEAR(static_cast<double>(intra), 1e3, 2.0);    // 1 MB at 1 GB/s
  EXPECT_NEAR(static_cast<double>(inter), 1e6, 10.0);   // 1 MB at 1 MB/s
}

TEST(VirtualWorld, RunsThousandsOfRanksCheaply) {
  const int m = 1024;  // 2x the threaded backend's hard cap
  VirtualWorld world(m);
  std::vector<int> seen(static_cast<std::size_t>(m), 0);
  world.run([&](comm::Communicator& c) {
    // Ring neighbour exchange + a collective, at a scale the threaded
    // world refuses to construct.
    const int next = (c.rank() + 1) % c.size();
    const int prev = (c.rank() + c.size() - 1) % c.size();
    c.send(next, 1, std::vector<std::byte>(64));
    (void)c.recv(prev, 1);
    const double v = 1.0;
    const auto sum = c.allreduce_sum(std::span<const double>(&v, 1));
    seen[static_cast<std::size_t>(c.rank())] =
        static_cast<int>(sum[0] + 0.5);
  });
  for (int r = 0; r < m; ++r) EXPECT_EQ(seen[static_cast<std::size_t>(r)], m);
  EXPECT_EQ(world.last_run_stats().flows, static_cast<std::uint64_t>(m));
}

// Both backends hand the receiver the sender's buffer itself, so a pooled
// frame buffer keeps its capacity as it migrates between rank pools.
template <typename WorldT>
void expect_recv_returns_the_sent_buffer(WorldT& world) {
  const std::size_t m = 2;
  std::vector<const std::byte*> sent(m);
  std::vector<const std::byte*> got(m);
  std::vector<std::size_t> sent_cap(m);
  std::vector<std::size_t> got_cap(m);
  world.run([&](comm::Communicator& c) {
    const int peer = 1 - c.rank();
    std::vector<std::byte> buf = c.pool().acquire(4096);
    buf.resize(100, std::byte{7});
    sent[static_cast<std::size_t>(c.rank())] = buf.data();
    sent_cap[static_cast<std::size_t>(c.rank())] = buf.capacity();
    c.send(peer, 3, std::move(buf));
    comm::Message msg = c.recv(peer, 3);
    got[static_cast<std::size_t>(peer)] = msg.payload.data();
    got_cap[static_cast<std::size_t>(peer)] = msg.payload.capacity();
    c.pool().release(std::move(msg.payload));
  });
  for (std::size_t r = 0; r < m; ++r) {
    EXPECT_EQ(got[r], sent[r]) << "rank " << r << "'s buffer was copied";
    EXPECT_EQ(got_cap[r], sent_cap[r]) << "rank " << r;
  }
}

TEST(VirtualWorld, RecvReturnsTheSendersBufferOnBothBackends) {
  comm::World threaded(2);
  expect_recv_returns_the_sent_buffer(threaded);
  VirtualWorld virtualised(2);
  expect_recv_returns_the_sent_buffer(virtualised);
}

// Every rank of a virtual world shares one plan per epoch: N epochs build
// N plans, not N x M.
TEST(VirtualWorld, BuildsOnePlanPerEpochForAllRanks) {
  const int m = 256;
  const std::size_t shard = 4;
  const double q = 0.5;
  const std::uint64_t seed = 0x9A7E;  // used by no other test: a cold cache
  const std::size_t epochs = 5;
  auto stores = make_stores(shard * static_cast<std::size_t>(m), m, q);
  std::vector<shuffle::ExchangeScratch> scratch(static_cast<std::size_t>(m));
  VirtualWorld world(m);
  const std::uint64_t builds = shuffle::exchange_plan_builds();
  for (std::size_t e = 0; e < epochs; ++e) {
    world.run([&](comm::Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      shuffle::run_pls_exchange_epoch(c, stores[r], seed, e, q, shard,
                                      nullptr, nullptr, nullptr, &scratch[r]);
    });
  }
  EXPECT_EQ(shuffle::exchange_plan_builds() - builds, epochs);
}

// Pools give their gauge accounting back when their world is destroyed,
// so comm.pool.* describes live pools only.
TEST(VirtualWorld, PoolGaugesForgetDestroyedWorlds) {
  auto& reg = obs::Registry::instance();
  const std::int64_t bytes = reg.gauge("comm.pool.bytes").value();
  const std::int64_t buffers = reg.gauge("comm.pool.buffers").value();
  const auto warm = [](comm::Communicator& c) {
    c.pool().reserve(4, std::size_t{1} << 18);
  };
  for (int round = 0; round < 3; ++round) {
    {
      comm::World threaded(4);
      threaded.run(warm);
      EXPECT_GT(reg.gauge("comm.pool.bytes").value(), bytes);
    }
    EXPECT_EQ(reg.gauge("comm.pool.bytes").value(), bytes);
    EXPECT_EQ(reg.gauge("comm.pool.buffers").value(), buffers);
    {
      VirtualWorld virtualised(4);
      virtualised.run(warm);
      EXPECT_EQ(reg.gauge("comm.pool.buffers").value(), buffers + 16);
    }
    EXPECT_EQ(reg.gauge("comm.pool.bytes").value(), bytes);
    EXPECT_EQ(reg.gauge("comm.pool.buffers").value(), buffers);
  }
}

TEST(VirtualWorld, DetectsDeadlockInsteadOfHanging) {
  VirtualWorld world(2);
  EXPECT_THROW(world.run([](comm::Communicator& c) {
    if (c.rank() == 0) (void)c.recv(1, 9);  // rank 1 never sends
  }),
               CheckError);
}

TEST(VirtualWorld, PropagatesRankExceptions) {
  VirtualWorld world(4);
  EXPECT_THROW(world.run([](comm::Communicator& c) {
    c.barrier();
    DSHUF_CHECK(c.rank() != 2, "rank 2 gives up");
    c.barrier();  // peers must unwind, not hang
  }),
               CheckError);
  // The world stays usable after an aborted run.
  int ok = 0;
  world.run([&](comm::Communicator& c) {
    c.barrier();
    if (c.rank() == 0) ok = 1;
  });
  EXPECT_EQ(ok, 1);
}

TEST(VirtualWorld, ChecksMailboxesDrainedBetweenRuns) {
  VirtualWorld world(2);
  EXPECT_THROW(world.run([](comm::Communicator& c) {
    if (c.rank() == 0) c.send(1, 5, std::vector<std::byte>(4));
    c.barrier();
    c.fence_faults();  // delivery lands; nobody receives it
    c.barrier();
  }),
               CheckError);
}

}  // namespace
}  // namespace dshuf::netsim
