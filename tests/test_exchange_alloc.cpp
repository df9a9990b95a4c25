// Allocation-free steady state for the coalesced exchange data path.
//
// This TU replaces the global operator new/delete with counting wrappers
// (the same pattern as test_workspace.cpp, which guards the training hot
// path) so it can assert an exact zero: after warmup epochs size the
// ExchangeScratch tables, the comm buffer pool, the mailbox ring queues,
// the shard-store index, and the metrics-registry statics to their
// high-water marks, a full exchange epoch — plan rebuild, frame packing,
// send, blocking receive, round-ordered staging with payload deposits,
// and the post-exchange local shuffle — performs no heap allocation at
// all, on any rank thread.
//
// The counter is process-global, so the measured window is bracketed with
// barriers: every rank finishes warmup before the baseline is read, and
// every rank finishes the measured epochs before the delta is read. A
// zero therefore proves the WHOLE exchange allocation-free, not just one
// rank's slice. gtest assertions allocate on their own, so the measured
// region records into plain pre-sized arrays and the checks run after
// World::run returns.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "comm/comm.hpp"
#include "shuffle/exchange_plan.hpp"
#include "shuffle/exchange_wire.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"

namespace {
std::atomic<std::uint64_t> g_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dshuf::shuffle {
namespace {

constexpr int kRanks = 4;
constexpr std::size_t kShard = 32;       // per-rank samples
constexpr double kQ = 0.5;               // quota = 16
constexpr std::size_t kPayload = 32;     // bytes per sample
constexpr std::uint64_t kSeed = 2026;
constexpr std::size_t kWarmupEpochs = 6;
constexpr std::size_t kMeasuredEpochs = 4;

TEST(ExchangeAlloc, CoalescedSteadyStateAllocatesNothing) {
  const std::size_t quota = exchange_quota(kShard, kQ);
  ASSERT_GT(quota, 0U);

  std::vector<ShardStore> stores;
  std::vector<ExchangeScratch> scratch(kRanks);
  for (int r = 0; r < kRanks; ++r) {
    std::vector<SampleId> shard;
    for (std::size_t i = 0; i < kShard; ++i) {
      shard.push_back(static_cast<SampleId>(
          static_cast<std::size_t>(r) * kShard + i));
    }
    stores.emplace_back(std::move(shard), kShard + quota);
  }

  // Payload/deposit pair exercised on every sample; the deposit verifies
  // the bytes without gtest (no allocation on the hot path).
  const PayloadFn payload = [](SampleId id, std::vector<std::byte>& out) {
    for (std::size_t b = 0; b < kPayload; ++b) {
      out.push_back(static_cast<std::byte>((id + b) & 0xFF));
    }
  };
  std::atomic<std::uint64_t> bad_deposits{0};
  const DepositFn deposit = [&bad_deposits](SampleId id,
                                            std::span<const std::byte> body) {
    bool ok = body.size() == kPayload;
    for (std::size_t b = 0; ok && b < body.size(); ++b) {
      ok = body[b] == static_cast<std::byte>((id + b) & 0xFF);
    }
    if (!ok) bad_deposits.fetch_add(1, std::memory_order_relaxed);
  };

  std::uint64_t before = 0;
  std::uint64_t after = 0;
  // Per-(rank, epoch) outcome fields, pre-sized so the measured region
  // only writes through pointers.
  std::vector<std::size_t> msgs(kRanks * kMeasuredEpochs, 0);
  std::vector<std::size_t> recvs(kRanks * kMeasuredEpochs, 0);

  comm::World world(kRanks);
  world.run([&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    auto& store = stores[r];
    auto& s = scratch[r];

    const auto epoch_step = [&](std::size_t epoch) {
      const ExchangeOutcome out = run_pls_exchange_epoch(
          c, store, kSeed, epoch, kQ, kShard, payload, deposit,
          /*robust=*/nullptr, &s);
      post_exchange_local_shuffle(kSeed, epoch, c.rank(),
                                  store.mutable_ids());
      return out;
    };

    // Warmup: size every buffer, table, pool slot, and registry static to
    // its high-water mark, and exercise the barrier path itself.
    for (std::size_t e = 0; e < kWarmupEpochs; ++e) epoch_step(e);
    c.barrier();
    c.barrier();

    if (c.rank() == 0) before = g_allocs.load(std::memory_order_relaxed);
    c.barrier();

    for (std::size_t e = 0; e < kMeasuredEpochs; ++e) {
      const ExchangeOutcome out = epoch_step(kWarmupEpochs + e);
      msgs[r * kMeasuredEpochs + e] = out.msgs_sent;
      recvs[r * kMeasuredEpochs + e] = out.recvs_committed;
    }
    c.barrier();

    if (c.rank() == 0) after = g_allocs.load(std::memory_order_relaxed);
  });

  // The acceptance bar: not "few", ZERO heap allocations across all four
  // rank threads for four full exchange epochs.
  EXPECT_EQ(after - before, 0U)
      << "steady-state exchange performed " << (after - before)
      << " heap allocations over " << kMeasuredEpochs << " epochs";

  // The window really did run the exchange: every rank committed its full
  // quota each epoch over at most M coalesced messages (the plan may route
  // some rounds back to the sender itself, so self is a valid frame
  // destination), and every deposited payload carried the expected bytes.
  EXPECT_EQ(bad_deposits.load(), 0U);
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t e = 0; e < kMeasuredEpochs; ++e) {
      const std::size_t i =
          static_cast<std::size_t>(r) * kMeasuredEpochs + e;
      EXPECT_EQ(recvs[i], quota) << "rank " << r << " epoch " << e;
      EXPECT_LE(msgs[i], static_cast<std::size_t>(kRanks));
      EXPECT_GE(msgs[i], 1U);
    }
  }
}

}  // namespace
}  // namespace dshuf::shuffle
