// The split-phase epoch exchange (shuffle::PlsEpochExchange) as this
// repo's counterpart to the paper's PLS.Scheduler: construction is the
// scheduling step (the shared-seed plan and this rank's picks), post()
// fires the epoch's sends while training runs, and finish() receives,
// stages and drops what was sent — Algorithm 1 line 7's clean-up. These
// tests drive that lifecycle directly, the way sim::run_overlapped_epochs
// does, and hold it to the sequential PartialLocalShuffler.
#include "shuffle/mpi_exchange.hpp"

#include <chrono>
#include <cstring>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "comm/fault.hpp"
#include "forwarding_communicator.hpp"
#include "netsim/virtual_comm.hpp"
#include "obs/metrics.hpp"
#include "shuffle/exchange_plan.hpp"
#include "shuffle/exchange_wire.hpp"
#include "shuffle/shuffler.hpp"
#include "shuffle/topology.hpp"
#include "util/error.hpp"

namespace dshuf::shuffle {
namespace {

std::vector<std::vector<SampleId>> make_shards(std::size_t n,
                                               std::size_t workers) {
  std::vector<std::vector<SampleId>> shards(workers);
  for (std::size_t i = 0; i < n; ++i) {
    shards[i % workers].push_back(static_cast<SampleId>(i));
  }
  return shards;
}

// Stores dealt round-robin, each with room for `extra` staged samples.
std::vector<ShardStore> make_stores(std::size_t n, int m, std::size_t extra) {
  auto shards = make_shards(n, static_cast<std::size_t>(m));
  std::vector<ShardStore> stores;
  for (auto& s : shards) {
    const std::size_t cap = s.size() + extra;
    stores.emplace_back(std::move(s), cap);
  }
  return stores;
}

std::multiset<SampleId> all_ids(const std::vector<ShardStore>& stores) {
  std::multiset<SampleId> ids;
  for (const auto& s : stores) ids.insert(s.ids().begin(), s.ids().end());
  return ids;
}

// Payload of `id`: 1 + id % 7 bytes, each the id's low byte, so frames
// mix sample sizes and the deposit side can check what it got.
void append_payload(SampleId id, std::vector<std::byte>& out) {
  out.insert(out.end(), 1 + id % 7, static_cast<std::byte>(id & 0xFF));
}

bool payload_matches(SampleId id, std::span<const std::byte> bytes) {
  if (bytes.size() != 1 + id % 7) return false;
  for (std::byte b : bytes) {
    if (b != static_cast<std::byte>(id & 0xFF)) return false;
  }
  return true;
}

TEST(PlsEpochExchange, LifecycleMatchesPaperProtocol) {
  const std::size_t n = 80;
  const int m = 4;
  const double q = 0.25;
  const std::size_t shard = n / m;
  const std::size_t quota = exchange_quota(shard, q);
  auto stores = make_stores(n, m, quota);
  std::vector<ExchangeOutcome> outcomes(m);
  std::vector<char> trivial(m, 1);
  comm::World world(m);
  world.run([&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    PlsEpochExchange exchange(c, stores[r], /*seed=*/7, /*epoch=*/0, q,
                              shard);
    trivial[r] = exchange.trivial() ? 1 : 0;
    exchange.post();
    outcomes[r] = exchange.finish();
  });
  for (std::size_t w = 0; w < static_cast<std::size_t>(m); ++w) {
    EXPECT_EQ(trivial[w], 0) << "worker " << w;
    const auto& o = outcomes[w];
    EXPECT_EQ(o.rounds, quota) << "worker " << w;
    EXPECT_EQ(o.sends_committed, quota) << "worker " << w;
    EXPECT_EQ(o.recvs_committed, quota) << "worker " << w;
    EXPECT_EQ(o.send_fallbacks + o.recv_fallbacks + o.retries, 0U)
        << "worker " << w;
    EXPECT_EQ(stores[w].ids().size(), shard) << "worker " << w;
  }
}

// post() may run on a thread other than the rank's (PlsEpochExchange's
// thread contract); the shards must still match the sequential driver bit
// for bit, epoch after epoch.
TEST(PlsEpochExchange, ShardContentsMatchPartialLocalShuffler) {
  const std::size_t n = 96;
  const int m = 6;
  const double q = 0.3;
  const std::uint64_t seed = 55;
  const std::size_t shard = n / m;
  auto stores = make_stores(n, m, exchange_quota(shard, q));
  PartialLocalShuffler pls(make_shards(n, m), q, seed);
  comm::World world(m);
  for (std::size_t e = 0; e < 4; ++e) {
    world.run([&](comm::Communicator& c) {
      auto& store = stores[static_cast<std::size_t>(c.rank())];
      PlsEpochExchange exchange(c, store, seed, e, q, shard);
      std::thread poster([&exchange] { exchange.post(); });
      poster.join();
      exchange.finish();
      post_exchange_local_shuffle(seed, e, c.rank(), store.mutable_ids());
    });
    pls.begin_epoch(e);
    for (std::size_t w = 0; w < static_cast<std::size_t>(m); ++w) {
      EXPECT_EQ(stores[w].ids(), pls.stores()[w].ids())
          << "worker " << w << " epoch " << e;
    }
  }
}

// Every round bound for one peer travels in that peer's frame: a rank
// sends exactly one message per distinct destination of its rounds in the
// epoch's plan, and its framing bytes are one header per frame plus one
// id per round.
TEST(PlsEpochExchange, FramesCarryEachPeersRoundsInOneMessage) {
  const std::size_t n = 80;
  const int m = 4;
  const double q = 0.5;
  const std::uint64_t seed = 7;
  const std::size_t shard = n / m;
  const std::size_t quota = exchange_quota(shard, q);
  auto stores = make_stores(n, m, quota);
  auto& isend = obs::Registry::instance().counter("comm.isend");
  comm::World world(m);
  for (std::size_t e = 0; e < 2; ++e) {
    std::vector<ExchangeOutcome> outcomes(m);
    const std::uint64_t isend_before = isend.value();
    world.run([&](comm::Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      PlsEpochExchange exchange(c, stores[r], seed, e, q, shard);
      exchange.post();
      outcomes[r] = exchange.finish();
    });
    SharedPlan plan;
    acquire_exchange_plan(plan_spec_for(seed, e, m, quota, std::nullopt),
                          plan);
    std::size_t total_msgs = 0;
    for (int r = 0; r < m; ++r) {
      std::vector<std::size_t> per_peer(m, 0);
      for (std::size_t i = 0; i < quota; ++i) {
        ++per_peer[static_cast<std::size_t>((*plan).dest(i, r))];
      }
      std::size_t frames = 0;
      std::size_t header = quota * sizeof(SampleId);
      for (std::size_t count : per_peer) {
        if (count == 0) continue;
        ++frames;
        header += frame_header_bytes(count);
      }
      const auto& o = outcomes[static_cast<std::size_t>(r)];
      EXPECT_EQ(o.msgs_sent, frames) << "rank " << r << " epoch " << e;
      EXPECT_EQ(o.bytes_header, header) << "rank " << r << " epoch " << e;
      EXPECT_EQ(o.bytes_body, 0U) << "rank " << r << " epoch " << e;
      total_msgs += o.msgs_sent;
    }
    EXPECT_EQ(isend.value() - isend_before, total_msgs) << "epoch " << e;
  }
}

// finish() completes the exchange whatever the timing of the peers' sends:
// a rank whose post() comes late (a long first batch, say) still delivers,
// because its peers' finish() waits for its frames rather than closing
// the epoch short.
TEST(PlsEpochExchange, FinishWaitsForFramesPostedLate) {
  const std::size_t n = 64;
  const int m = 4;
  const double q = 0.5;
  const std::uint64_t seed = 3;
  const std::size_t shard = n / m;
  const std::size_t quota = exchange_quota(shard, q);
  auto stores = make_stores(n, m, quota);
  PartialLocalShuffler pls(make_shards(n, m), q, seed);
  comm::World world(m);
  for (std::size_t e = 0; e < 2; ++e) {
    const int late_rank = e == 0 ? 0 : m - 1;
    std::vector<ExchangeOutcome> outcomes(m);
    world.run([&](comm::Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      PlsEpochExchange exchange(c, stores[r], seed, e, q, shard);
      if (c.rank() == late_rank) {
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
      }
      exchange.post();
      outcomes[r] = exchange.finish();
      post_exchange_local_shuffle(seed, e, c.rank(), stores[r].mutable_ids());
    });
    pls.begin_epoch(e);
    for (std::size_t w = 0; w < static_cast<std::size_t>(m); ++w) {
      EXPECT_EQ(outcomes[w].recvs_committed, quota)
          << "worker " << w << " epoch " << e;
      EXPECT_EQ(stores[w].ids(), pls.stores()[w].ids())
          << "worker " << w << " epoch " << e;
    }
  }
}

// Fig. 4 semantics: the samples a worker trains on in epoch e are its
// shard as of the START of epoch e. Training runs between post() and
// finish(), so until finish() the store must read as the pre-exchange
// shard, even once every peer's frames have been delivered.
TEST(PlsEpochExchange, CurrentEpochOrderIsPreExchange) {
  const std::size_t n = 40;
  const int m = 4;
  const double q = 1.0;
  const std::uint64_t seed = 7;
  const std::size_t shard = n / m;
  auto stores = make_stores(n, m, exchange_quota(shard, q));
  comm::World world(m);
  world.run([&](comm::Communicator& c) {
    auto& store = stores[static_cast<std::size_t>(c.rank())];
    const std::vector<SampleId> before = store.ids();
    PlsEpochExchange exchange(c, store, seed, 0, q, shard);
    exchange.post();
    c.barrier();  // every rank's frames are now on the wire
    EXPECT_EQ(store.ids(), before)
        << "rank " << c.rank() << " saw a sample of the exchange mid-epoch";
    exchange.finish();
  });
  PartialLocalShuffler pls(make_shards(n, m), q, seed);
  pls.begin_epoch(0);
  for (std::size_t w = 0; w < static_cast<std::size_t>(m); ++w) {
    const auto& got = stores[w].ids();
    const auto& want = pls.stores()[w].ids();
    EXPECT_EQ(std::multiset<SampleId>(got.begin(), got.end()),
              std::multiset<SampleId>(want.begin(), want.end()))
        << "worker " << w;
  }
}

// Ragged shards exchange the quota of the smallest one; every epoch the
// world still holds each sample exactly once, every shard keeps its size,
// and every deposited payload is the one its sender packed.
TEST(PlsEpochExchange, ConservationAcrossEpochsWithRaggedShards) {
  const std::size_t n = 62;  // shards of 13, 13, 12, 12, 12
  const int m = 5;
  const double q = 0.4;
  const std::uint64_t seed = 21;
  const std::size_t min_shard = n / m;
  const std::size_t quota = exchange_quota(min_shard, q);
  auto stores = make_stores(n, m, quota);
  std::vector<std::size_t> sizes;
  for (const auto& s : stores) sizes.push_back(s.ids().size());
  std::multiset<SampleId> expected;
  for (std::size_t i = 0; i < n; ++i) {
    expected.insert(static_cast<SampleId>(i));
  }
  const PayloadFn payload = append_payload;
  comm::World world(m);
  for (std::size_t e = 0; e < 4; ++e) {
    std::vector<std::size_t> deposits(m, 0);
    std::vector<std::size_t> bad_payloads(m, 0);
    std::vector<ExchangeOutcome> outcomes(m);
    world.run([&](comm::Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      const DepositFn deposit = [&](SampleId id,
                                    std::span<const std::byte> bytes) {
        ++deposits[r];
        if (!payload_matches(id, bytes)) ++bad_payloads[r];
      };
      PlsEpochExchange exchange(c, stores[r], seed, e, q, min_shard,
                                &payload, &deposit);
      exchange.post();
      outcomes[r] = exchange.finish();
      post_exchange_local_shuffle(seed, e, c.rank(), stores[r].mutable_ids());
    });
    EXPECT_EQ(all_ids(stores), expected) << "epoch " << e;
    for (std::size_t w = 0; w < static_cast<std::size_t>(m); ++w) {
      EXPECT_EQ(stores[w].ids().size(), sizes[w])
          << "worker " << w << " epoch " << e;
      EXPECT_EQ(deposits[w], quota) << "worker " << w << " epoch " << e;
      EXPECT_EQ(outcomes[w].recvs_committed, quota)
          << "worker " << w << " epoch " << e;
      EXPECT_EQ(bad_payloads[w], 0U) << "worker " << w << " epoch " << e;
    }
  }
}

TEST(PlsEpochExchange, MisuseIsRejected) {
  const std::size_t n = 40;
  const int m = 2;
  const std::size_t shard = n / m;
  // Out-of-order calls throw before touching the fabric, on a real
  // exchange and on a trivial one (Q = 0) alike.
  for (const double q : {0.5, 0.0}) {
    auto stores = make_stores(n, m, exchange_quota(shard, q));
    comm::World world(m);
    world.run([&](comm::Communicator& c) {
      auto& store = stores[static_cast<std::size_t>(c.rank())];
      PlsEpochExchange exchange(c, store, 7, 0, q, shard);
      EXPECT_THROW(exchange.finish(), CheckError);  // before post()
      exchange.post();
      EXPECT_THROW(exchange.post(), CheckError);    // posted twice
      EXPECT_NO_THROW(exchange.finish());
      EXPECT_THROW(exchange.finish(), CheckError);  // finished twice
    });
    EXPECT_EQ(all_ids(stores).size(), n) << "q " << q;
  }

  // The fast path cannot survive injected faults, and a robust budget
  // needs at least one send attempt; both are refused at construction.
  auto stores = make_stores(n, m, exchange_quota(shard, 0.5));
  comm::FaultSpec spec;
  spec.drop_prob = 0.5;
  comm::World faulty(m);
  faulty.set_fault_plan(comm::FaultPlan(1, spec));
  ExchangeRobustness no_attempts;
  no_attempts.max_attempts = 0;
  faulty.run([&](comm::Communicator& c) {
    auto& store = stores[static_cast<std::size_t>(c.rank())];
    EXPECT_THROW(PlsEpochExchange(c, store, 7, 0, 0.5, shard), CheckError);
    EXPECT_THROW(PlsEpochExchange(c, store, 7, 0, 0.5, shard, nullptr,
                                  nullptr, &no_attempts),
                 CheckError);
  });
}

// An epoch with nothing to exchange — Q = 0, a single rank, or empty
// shards — is trivial: post() and finish() send nothing, return an empty
// outcome and leave the shard as it was.
TEST(PlsEpochExchange, TrivialEpochsSendNothing) {
  struct Case {
    int m;
    std::size_t n;
    double q;
  };
  auto& isend = obs::Registry::instance().counter("comm.isend");
  for (const Case& k : {Case{4, 40, 0.0}, Case{1, 10, 1.0}, Case{3, 0, 0.5}}) {
    auto stores = make_stores(k.n, k.m, 0);
    std::vector<std::vector<SampleId>> before;
    for (const auto& s : stores) before.push_back(s.ids());
    const std::size_t min_shard = k.n / static_cast<std::size_t>(k.m);
    std::vector<ExchangeOutcome> outcomes(k.m);
    std::vector<char> trivial(k.m, 0);
    const std::uint64_t isend_before = isend.value();
    comm::World world(k.m);
    world.run([&](comm::Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      PlsEpochExchange exchange(c, stores[r], 7, 0, k.q, min_shard);
      trivial[r] = exchange.trivial() ? 1 : 0;
      exchange.post();
      outcomes[r] = exchange.finish();
    });
    EXPECT_EQ(isend.value(), isend_before)
        << "m " << k.m << " n " << k.n << " q " << k.q;
    for (std::size_t w = 0; w < static_cast<std::size_t>(k.m); ++w) {
      EXPECT_EQ(trivial[w], 1) << "m " << k.m << " n " << k.n;
      EXPECT_EQ(outcomes[w].rounds, 0U) << "m " << k.m << " n " << k.n;
      EXPECT_EQ(outcomes[w].msgs_sent, 0U) << "m " << k.m << " n " << k.n;
      EXPECT_EQ(stores[w].ids(), before[w]) << "m " << k.m << " n " << k.n;
    }
  }
}

// The robust protocol measures its ACK timeouts and receive deadline from
// finish(), not post(): a compute phase far longer than both, between the
// two, costs no retransmission and no fallback. On the virtual backend
// the long compute phase is exact and costs no wall time.
TEST(PlsEpochExchange, RobustClocksStartAtFinishNotPost) {
  const std::size_t n = 96;
  const int m = 8;
  const double q = 0.5;
  const std::uint64_t seed = 11;
  const std::size_t shard = n / m;
  const std::size_t quota = exchange_quota(shard, q);
  ExchangeRobustness robust;
  robust.ack_timeout = std::chrono::milliseconds(10);
  robust.max_attempts = 4;
  robust.recv_deadline = std::chrono::milliseconds(50);
  robust.poll_interval = std::chrono::microseconds(200);

  auto stores = make_stores(n, m, quota);
  PartialLocalShuffler pls(make_shards(n, m), q, seed);
  netsim::VirtualWorld world(m);
  for (std::size_t e = 0; e < 2; ++e) {
    std::vector<ExchangeOutcome> outcomes(m);
    world.run([&](comm::Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      PlsEpochExchange exchange(c, stores[r], seed, e, q, shard, nullptr,
                                nullptr, &robust);
      exchange.post();
      c.backoff(std::chrono::seconds(1));  // the epoch's compute phase
      outcomes[r] = exchange.finish();
      post_exchange_local_shuffle(seed, e, c.rank(), stores[r].mutable_ids());
    });
    pls.begin_epoch(e);
    for (std::size_t w = 0; w < static_cast<std::size_t>(m); ++w) {
      const auto& o = outcomes[w];
      EXPECT_EQ(o.retries, 0U) << "worker " << w << " epoch " << e;
      EXPECT_EQ(o.send_fallbacks, 0U) << "worker " << w << " epoch " << e;
      EXPECT_EQ(o.recv_fallbacks, 0U) << "worker " << w << " epoch " << e;
      EXPECT_EQ(o.sends_committed, quota) << "worker " << w << " epoch " << e;
      EXPECT_EQ(stores[w].ids(), pls.stores()[w].ids())
          << "worker " << w << " epoch " << e;
    }
  }
}

// A caller-kept ExchangeScratch carries routing tables, frame slots and
// the payload high-water mark from one epoch into the next. Changing Q
// every epoch grows and shrinks all of them; the shards and deposits must
// match exchanges that start each epoch from fresh scratch.
TEST(PlsEpochExchange, ReusedScratchMatchesFreshScratchAcrossQuotaChanges) {
  const std::size_t n = 60;
  const int m = 5;
  const std::uint64_t seed = 31;
  const std::size_t shard = n / m;
  const std::vector<double> qs = {0.5, 0.1, 1.0, 0.25, 0.75};
  const PayloadFn payload = append_payload;

  // Runs every epoch; returns each epoch's shards and deposited ids.
  auto run = [&](bool reuse) {
    auto stores = make_stores(n, m, shard);
    std::vector<ExchangeScratch> scratch(m);
    std::vector<std::vector<std::vector<SampleId>>> shards(qs.size());
    std::vector<std::vector<std::vector<SampleId>>> deposited(qs.size());
    comm::World world(m);
    for (std::size_t e = 0; e < qs.size(); ++e) {
      deposited[e].resize(m);
      world.run([&](comm::Communicator& c) {
        const auto r = static_cast<std::size_t>(c.rank());
        const DepositFn deposit = [&](SampleId id,
                                      std::span<const std::byte> bytes) {
          EXPECT_TRUE(payload_matches(id, bytes)) << "sample " << id;
          deposited[e][r].push_back(id);
        };
        PlsEpochExchange exchange(c, stores[r], seed, e, qs[e], shard,
                                  &payload, &deposit, nullptr,
                                  reuse ? &scratch[r] : nullptr);
        exchange.post();
        exchange.finish();
        post_exchange_local_shuffle(seed, e, c.rank(),
                                    stores[r].mutable_ids());
      });
      for (const auto& s : stores) shards[e].push_back(s.ids());
    }
    return std::make_pair(shards, deposited);
  };

  const auto fresh = run(false);
  const auto reused = run(true);
  for (std::size_t e = 0; e < qs.size(); ++e) {
    EXPECT_EQ(reused.first[e], fresh.first[e]) << "epoch " << e;
    EXPECT_EQ(reused.second[e], fresh.second[e]) << "epoch " << e;
  }
}

using EpochShards = std::vector<std::vector<std::vector<SampleId>>>;

// Each rank's shard after each of `epochs` split-phase epochs on a fresh
// World of `m` ranks, all passed `topology`, with the post-exchange local
// shuffle applied.
EpochShards split_phase_epochs(int m, std::size_t n, double q,
                               std::uint64_t seed, std::size_t epochs,
                               const std::optional<Topology>& topology) {
  const std::size_t shard = n / static_cast<std::size_t>(m);
  auto stores = make_stores(n, m, exchange_quota(shard, q));
  EpochShards shards(epochs);
  comm::World world(m);
  for (std::size_t e = 0; e < epochs; ++e) {
    world.run([&](comm::Communicator& c) {
      auto& store = stores[static_cast<std::size_t>(c.rank())];
      PlsEpochExchange exchange(c, store, seed, e, q, shard, nullptr,
                                nullptr, nullptr, nullptr, topology);
      exchange.post();
      exchange.finish();
      post_exchange_local_shuffle(seed, e, c.rank(), store.mutable_ids());
    });
    for (const auto& s : stores) shards[e].push_back(s.ids());
  }
  return shards;
}

// The same epochs on the sequential driver constructed with `topology`.
EpochShards sequential_epochs(int m, std::size_t n, double q,
                              std::uint64_t seed, std::size_t epochs,
                              const std::optional<Topology>& topology) {
  PartialLocalShuffler pls(make_shards(n, static_cast<std::size_t>(m)), q,
                           seed, topology);
  EpochShards shards(epochs);
  for (std::size_t e = 0; e < epochs; ++e) {
    pls.begin_epoch(e);
    for (const auto& s : pls.stores()) shards[e].push_back(s.ids());
  }
  return shards;
}

Topology grouped(int groups) {
  Topology t;
  t.groups = groups;
  return t;
}

// A topology of more than one group reaches the plan: the split-phase
// exchange follows the sequential driver's grouped plan epoch by epoch,
// and that plan is not the flat one, which EquivalenceSweep (each driver
// against the other under one topology) cannot see.
TEST(PlsEpochExchange, GroupedTopologyIsNotTheFlatPlan) {
  const int m = 6;
  const std::size_t n = 120;
  const double q = 0.5;
  const std::uint64_t seed = 23;
  const std::size_t epochs = 3;
  const EpochShards got =
      split_phase_epochs(m, n, q, seed, epochs, grouped(3));
  EXPECT_EQ(got, sequential_epochs(m, n, q, seed, epochs, grouped(3)));
  EXPECT_NE(got, sequential_epochs(m, n, q, seed, epochs, std::nullopt))
      << "the grouped plan moved every sample exactly as the flat one";
}

// One group spans every rank, which is the flat Algorithm-1 plan: passing
// it changes no shard against passing no topology at all.
TEST(PlsEpochExchange, SingleGroupTopologyIsTheFlatPlan) {
  const int m = 5;
  const std::size_t n = 100;
  const double q = 0.3;
  const std::uint64_t seed = 41;
  const std::size_t epochs = 3;
  const EpochShards flat =
      split_phase_epochs(m, n, q, seed, epochs, std::nullopt);
  EXPECT_EQ(split_phase_epochs(m, n, q, seed, epochs, grouped(1)), flat);
  EXPECT_EQ(flat, sequential_epochs(m, n, q, seed, epochs, std::nullopt));
}

// The topology belongs to the call, not to the process: two worlds
// exchanging at the same time, one flat and one grouped, each follow
// their own plan.
TEST(PlsEpochExchange, ConcurrentWorldsKeepTheirOwnTopologies) {
  const int m = 4;
  const std::size_t n = 96;
  const double q = 0.5;
  const std::uint64_t seed = 8;
  const std::size_t epochs = 4;
  const std::optional<Topology> topologies[2] = {std::nullopt, grouped(2)};
  EpochShards got[2];
  std::vector<std::thread> drivers;
  for (std::size_t i = 0; i < 2; ++i) {
    drivers.emplace_back([&, i] {
      got[i] = split_phase_epochs(m, n, q, seed, epochs, topologies[i]);
    });
  }
  for (auto& d : drivers) d.join();
  EXPECT_EQ(got[0],
            sequential_epochs(m, n, q, seed, epochs, topologies[0]));
  EXPECT_EQ(got[1],
            sequential_epochs(m, n, q, seed, epochs, topologies[1]));
  EXPECT_NE(got[0], got[1]);
}

// The header words the receiver cross-checks before staging a frame.
enum class HeaderWord { kEpoch, kOrigin, kCount, kFlowId };

// Forwards to a rank's real endpoint, except that the first frame it sends
// to another rank is re-encoded with one header word damaged. The frame
// stays well formed, so parse_frame accepts it and only the receiver's
// cross-checks can refuse it.
class FrameHeaderDamager final : public ForwardingCommunicator {
 public:
  FrameHeaderDamager(comm::Communicator& inner,
                     comm::detail::CollectiveSlots& slots, HeaderWord word)
      : ForwardingCommunicator(inner, slots), word_(word) {}

  comm::Request isend(int dest, int tag,
                      std::vector<std::byte> payload) override {
    return ForwardingCommunicator::isend(
        dest, tag, maybe_damage(dest, std::move(payload)));
  }
  void send(int dest, int tag, std::vector<std::byte> payload) override {
    ForwardingCommunicator::send(dest, tag,
                                 maybe_damage(dest, std::move(payload)));
  }

  /// Rank the damaged frame went to, or -1 before one was sent.
  [[nodiscard]] int victim() const { return victim_; }

 private:
  std::vector<std::byte> maybe_damage(int dest,
                                      std::vector<std::byte> frame) {
    if (victim_ >= 0 || dest == rank() || frame.empty()) return frame;
    victim_ = dest;
    const FrameView v = parse_frame(frame);
    std::uint64_t epoch = v.epoch();
    auto origin = static_cast<int>(v.origin());
    std::uint64_t flow_id = v.flow_id();
    std::uint32_t count = v.count();
    switch (word_) {
      case HeaderWord::kEpoch: ++epoch; break;
      case HeaderWord::kOrigin: origin ^= 1; break;
      case HeaderWord::kCount: --count; break;  // drops the last sample
      case HeaderWord::kFlowId: flow_id ^= 1; break;
    }
    std::vector<std::byte> out;
    FrameWriter w(out, epoch, origin, flow_id, count);
    for (std::uint32_t j = 0; j < count; ++j) {
      w.begin_sample(v.id(j));
      const auto bytes = v.payload(j);
      out.insert(out.end(), bytes.begin(), bytes.end());
    }
    w.finish();
    return out;
  }

  HeaderWord word_;
  int victim_ = -1;
};

// A frame whose epoch, origin, count or flow-id word disagrees with what
// the receiver expects from that peer is refused in finish() with a
// CheckError naming the check, before any of it is staged.
TEST(PlsEpochExchange, FinishRejectsDamagedFrameHeaders) {
  const std::size_t n = 60;
  const int m = 3;
  const double q = 0.5;
  const std::size_t shard = n / m;
  const PayloadFn payload = append_payload;
  const std::pair<HeaderWord, const char*> cases[] = {
      {HeaderWord::kEpoch, "belongs to another epoch"},
      {HeaderWord::kOrigin, "names origin"},
      {HeaderWord::kCount, "disagrees with the exchange plan"},
      {HeaderWord::kFlowId, "carries a foreign flow id"},
  };
  for (const auto& [word, expected] : cases) {
    SCOPED_TRACE(expected);
    auto stores = make_stores(n, m, exchange_quota(shard, q));
    comm::detail::CollectiveSlots slots;
    slots.init(m);
    std::vector<std::string> errors(static_cast<std::size_t>(m));
    int victim = -1;
    comm::World world(m);
    world.run([&](comm::Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      FrameHeaderDamager damager(c, slots, word);
      comm::Communicator& link = r == 0 ? damager : c;
      {
        PlsEpochExchange exchange(link, stores[r], 7, 0, q, shard, &payload);
        exchange.post();
        try {
          exchange.finish();
        } catch (const CheckError& e) {
          errors[r] = e.what();
        }
      }
      if (r == 0) victim = damager.victim();
      // A refused finish() leaves later peers' frames in the mailbox.
      c.barrier();
      while (c.poll(comm::kAnySource, comm::kAnyTag)) {
      }
    });
    ASSERT_GT(victim, 0) << "rank 0 sent no frame to another rank";
    for (int r = 0; r < m; ++r) {
      const std::string& err = errors[static_cast<std::size_t>(r)];
      if (r == victim) {
        EXPECT_NE(err.find(expected), std::string::npos)
            << "rank " << r << " threw: " << err;
      } else {
        EXPECT_TRUE(err.empty()) << "rank " << r << " threw: " << err;
      }
    }
  }
}

}  // namespace
}  // namespace dshuf::shuffle
