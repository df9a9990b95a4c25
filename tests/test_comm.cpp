// lint:tag-ok-file: exercises the raw transport — tags here name
// transport-level channels under test, not PLS exchange rounds.
#include "comm/comm.hpp"

#include <atomic>
#include <cstring>
#include <numeric>

#include <gtest/gtest.h>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace dshuf::comm {
namespace {

std::vector<std::byte> bytes_of(int v) {
  std::vector<std::byte> b(sizeof(int));
  std::memcpy(b.data(), &v, sizeof(int));
  return b;
}

int int_of(const std::vector<std::byte>& b) {
  int v = 0;
  std::memcpy(&v, b.data(), sizeof(int));
  return v;
}

TEST(Comm, PointToPointSendRecv) {
  World world(2);
  world.run([](Communicator& c) {
    if (c.rank() == 0) {
      c.isend(1, /*tag=*/7, bytes_of(42));
    } else {
      const Message m = c.recv(0, 7);
      EXPECT_EQ(int_of(m.payload), 42);
      EXPECT_EQ(m.source, 0);
      EXPECT_EQ(m.tag, 7);
    }
  });
}

TEST(Comm, AnySourceMatchesWhoeverSends) {
  World world(3);
  world.run([](Communicator& c) {
    if (c.rank() != 0) {
      c.isend(0, 1, bytes_of(c.rank()));
    } else {
      int sum = 0;
      for (int i = 0; i < 2; ++i) {
        const Message m = c.recv(kAnySource, 1);
        sum += int_of(m.payload);
      }
      EXPECT_EQ(sum, 3);  // 1 + 2
    }
  });
}

TEST(Comm, TagsSelectMessages) {
  World world(2);
  world.run([](Communicator& c) {
    if (c.rank() == 0) {
      c.isend(1, /*tag=*/5, bytes_of(55));
      c.isend(1, /*tag=*/9, bytes_of(99));
    } else {
      // Receive tag 9 first even though tag 5 arrived first.
      const Message m9 = c.recv(0, 9);
      EXPECT_EQ(int_of(m9.payload), 99);
      const Message m5 = c.recv(0, 5);
      EXPECT_EQ(int_of(m5.payload), 55);
    }
  });
}

TEST(Comm, NonOvertakingPerSourceAndTag) {
  World world(2);
  world.run([](Communicator& c) {
    if (c.rank() == 0) {
      for (int i = 0; i < 16; ++i) c.isend(1, 3, bytes_of(i));
    } else {
      for (int i = 0; i < 16; ++i) {
        EXPECT_EQ(int_of(c.recv(0, 3).payload), i);
      }
    }
  });
}

TEST(Comm, IrecvParksUntilMessageArrives) {
  World world(2);
  world.run([](Communicator& c) {
    if (c.rank() == 1) {
      Request r = c.irecv(0, 2);
      // Possibly not done yet; wait() must complete once rank 0 sends.
      r.wait();
      EXPECT_EQ(int_of(r.message().payload), 7);
    } else {
      c.isend(1, 2, bytes_of(7));
    }
  });
}

TEST(Comm, WaitAllCompletesMixedRequests) {
  World world(2);
  world.run([](Communicator& c) {
    std::vector<Request> reqs;
    const int peer = 1 - c.rank();
    for (int i = 0; i < 8; ++i) {
      reqs.push_back(c.isend(peer, i, bytes_of(i)));
      reqs.push_back(c.irecv(peer, i));
    }
    wait_all(reqs);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(int_of(reqs[2 * i + 1].message().payload), i);
    }
  });
}

TEST(Comm, BarrierSynchronises) {
  World world(4);
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  world.run([&](Communicator& c) {
    before.fetch_add(1);
    c.barrier();
    // Every rank must have passed `before` by now.
    EXPECT_EQ(before.load(), 4);
    after.fetch_add(1);
  });
  EXPECT_EQ(after.load(), 4);
}

TEST(Comm, AllreduceSumsContributions) {
  World world(4);
  world.run([](Communicator& c) {
    const std::vector<double> contrib{static_cast<double>(c.rank()), 1.0};
    const auto sum = c.allreduce_sum(contrib);
    ASSERT_EQ(sum.size(), 2U);
    EXPECT_DOUBLE_EQ(sum[0], 0 + 1 + 2 + 3);
    EXPECT_DOUBLE_EQ(sum[1], 4.0);
  });
}

TEST(Comm, AllreduceIsBitwiseIdenticalAcrossRanks) {
  World world(3);
  std::vector<std::vector<double>> results(3);
  world.run([&](Communicator& c) {
    std::vector<double> contrib(5);
    for (std::size_t i = 0; i < 5; ++i) {
      contrib[i] = 0.1 * (c.rank() + 1) * static_cast<double>(i);
    }
    results[static_cast<std::size_t>(c.rank())] = c.allreduce_sum(contrib);
  });
  EXPECT_EQ(results[0], results[1]);
  EXPECT_EQ(results[1], results[2]);
}

TEST(Comm, BcastDistributesRootPayload) {
  World world(3);
  world.run([](Communicator& c) {
    std::vector<std::byte> payload;
    if (c.rank() == 1) payload = bytes_of(1234);
    const auto got = c.bcast(1, payload);
    EXPECT_EQ(int_of(got), 1234);
  });
}

TEST(Comm, AlltoallvPersonalisedExchange) {
  World world(3);
  world.run([](Communicator& c) {
    std::vector<std::vector<std::byte>> send(3);
    for (int d = 0; d < 3; ++d) {
      send[d] = bytes_of(c.rank() * 10 + d);
    }
    const auto got = c.alltoallv(std::move(send));
    ASSERT_EQ(got.size(), 3U);
    for (int s = 0; s < 3; ++s) {
      EXPECT_EQ(int_of(got[s]), s * 10 + c.rank());
    }
  });
}

TEST(Comm, GatherCollectsAtRootOnly) {
  World world(4);
  world.run([](Communicator& c) {
    const auto got = c.gather(2, bytes_of(c.rank() * 11));
    if (c.rank() == 2) {
      ASSERT_EQ(got.size(), 4U);
      for (int s = 0; s < 4; ++s) EXPECT_EQ(int_of(got[s]), s * 11);
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(Comm, AllgatherGivesEveryoneEverything) {
  World world(3);
  world.run([](Communicator& c) {
    const auto got = c.allgather(bytes_of(100 + c.rank()));
    ASSERT_EQ(got.size(), 3U);
    for (int s = 0; s < 3; ++s) EXPECT_EQ(int_of(got[s]), 100 + s);
  });
}

TEST(Comm, ReduceSumDeliversAtRoot) {
  World world(4);
  world.run([](Communicator& c) {
    const std::vector<double> contrib{static_cast<double>(c.rank() + 1)};
    const auto got = c.reduce_sum(0, contrib);
    if (c.rank() == 0) {
      ASSERT_EQ(got.size(), 1U);
      EXPECT_DOUBLE_EQ(got[0], 1 + 2 + 3 + 4);
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(Comm, ScatterDistributesRootShares) {
  World world(3);
  world.run([](Communicator& c) {
    std::vector<std::vector<std::byte>> shares;
    if (c.rank() == 1) {
      for (int d = 0; d < 3; ++d) shares.push_back(bytes_of(d * 7));
    }
    const auto mine = c.scatter(1, std::move(shares));
    EXPECT_EQ(int_of(mine), c.rank() * 7);
  });
}

TEST(Comm, ExceptionInOneRankPropagatesAndUnblocksOthers) {
  World world(2);
  EXPECT_THROW(world.run([](Communicator& c) {
                 if (c.rank() == 0) {
                   throw CheckError("rank 0 failure");
                 }
                 // Rank 1 would deadlock on this barrier without abort
                 // handling.
                 c.barrier();
               }),
               CheckError);
}

TEST(Comm, UndrainedMailboxIsAnError) {
  World world(2);
  EXPECT_THROW(world.run([](Communicator& c) {
                 if (c.rank() == 0) c.isend(1, 0, bytes_of(1));
                 // Rank 1 never receives.
               }),
               CheckError);
}

TEST(Comm, WorldCanRunMultipleTimes) {
  World world(2);
  for (int round = 0; round < 3; ++round) {
    world.run([round](Communicator& c) {
      if (c.rank() == 0) {
        c.isend(1, round, bytes_of(round));
      } else {
        EXPECT_EQ(int_of(c.recv(0, round).payload), round);
      }
    });
  }
}

TEST(Comm, ManyRanksStress) {
  constexpr int kRanks = 16;
  World world(kRanks);
  world.run([](Communicator& c) {
    // Ring: send to the right, receive from the left, several laps.
    const int right = (c.rank() + 1) % kRanks;
    const int left = (c.rank() + kRanks - 1) % kRanks;
    int token = c.rank();
    for (int lap = 0; lap < 4; ++lap) {
      c.isend(right, lap, bytes_of(token));
      token = int_of(c.recv(left, lap).payload);
    }
    // After 4 laps the token originated 4 ranks to the left.
    EXPECT_EQ(token, (c.rank() + kRanks - 4) % kRanks);
  });
}

// A pool's buffers stay counted exactly once in the comm.pool.* gauges
// wherever moves take them, and leave the gauges with the last owner.
TEST(BufferPool, MovesCarryGaugeAccountingOnce) {
  auto& reg = obs::Registry::instance();
  auto& buffers = reg.gauge("comm.pool.buffers");
  auto& bytes = reg.gauge("comm.pool.bytes");
  const std::int64_t buffers0 = buffers.value();
  const std::int64_t bytes0 = bytes.value();
  {
    BufferPool a;
    a.reserve(2, 1024);
    const auto held = static_cast<std::int64_t>(a.free_bytes());
    BufferPool b(std::move(a));
    BufferPool c;
    c.reserve(1, 4096);
    c = std::move(b);  // c's own buffer leaves the gauges
    EXPECT_EQ(buffers.value(), buffers0 + 2);
    EXPECT_EQ(bytes.value(), bytes0 + held);
    EXPECT_EQ(c.free_buffers(), 2U);
  }
  EXPECT_EQ(buffers.value(), buffers0);
  EXPECT_EQ(bytes.value(), bytes0);
}

TEST(Comm, RejectsInvalidRanks) {
  World world(2);
  EXPECT_THROW(world.run([](Communicator& c) {
                 if (c.rank() == 0) c.isend(5, 0, {});
                 c.barrier();
               }),
               CheckError);
}

}  // namespace
}  // namespace dshuf::comm
