// bench_exchange: records the exchange's per-epoch cost baseline.
//
// One arm over a fixed PLS workload (M = 16 ranks, shard = 256, Q = 1.0
// so quota = 256, 64-byte payloads): the coalesced exchange with a
// persistent per-rank ExchangeScratch — the default data path (one frame
// per peer, pooled buffers, allocation-free steady state).
//
// This TU replaces global operator new with a counting wrapper, so besides
// message counts and wall clock it reports exact heap-allocation counts
// for the measured epochs (warmup epochs absorb one-time pool/table
// growth). --out writes BENCH_exchange.json (schema
// dshuf.bench_exchange.v2); --check re-reads a written file and enforces
// two absolute ceilings, the CI perf-smoke gate: at most one message per
// ordered rank pair (msgs_per_epoch <= M^2) and at most 6 heap
// allocations per epoch. Both are machine-independent; the wall clock is
// informational.
#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include "comm/comm.hpp"
#include "shuffle/exchange_plan.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"
#include "util/argparse.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"

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

namespace {

using namespace dshuf;
using namespace dshuf::shuffle;

constexpr int kRanks = 16;
constexpr std::size_t kShard = 256;
constexpr double kQ = 1.0;  // quota = 256 >= the acceptance floor
constexpr std::size_t kPayloadBytes = 64;
constexpr std::uint64_t kSeed = 99;
/// --check ceiling on heap allocations per epoch, whole process. The
/// exchange itself allocates nothing once warm (test_exchange_alloc
/// asserts 0); this whole-process count reads 0.3 to 1.2 per epoch.
constexpr double kMaxAllocsPerEpoch = 6.0;

struct ArmResult {
  std::size_t epochs = 0;
  double msgs_per_epoch = 0.0;    // point-to-point messages, all ranks
  double allocs_per_epoch = 0.0;  // heap allocations, whole process
  double bytes_per_epoch = 0.0;   // offered wire bytes, all ranks
  double epoch_ms = 0.0;          // wall clock per epoch
};

ArmResult run_arm(std::size_t warmup_epochs, std::size_t epochs) {
  const std::size_t quota = exchange_quota(kShard, kQ);

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

  const PayloadFn payload = [](SampleId id, std::vector<std::byte>& out) {
    for (std::size_t b = 0; b < kPayloadBytes; ++b) {
      out.push_back(static_cast<std::byte>((id + b) & 0xFF));
    }
  };
  const DepositFn deposit = [](SampleId, std::span<const std::byte>) {};

  std::vector<std::size_t> msgs(kRanks, 0);
  std::vector<std::size_t> bytes(kRanks, 0);
  std::uint64_t allocs_before = 0;
  std::uint64_t allocs_after = 0;
  double elapsed_s = 0.0;

  comm::World world(kRanks);
  world.run([&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    Stopwatch sw;
    const auto epoch_step = [&](std::size_t epoch, bool measured) {
      const ExchangeOutcome out = run_pls_exchange_epoch(
          c, stores[r], kSeed, epoch, kQ, kShard, payload, deposit,
          /*robust=*/nullptr, &scratch[r]);
      post_exchange_local_shuffle(kSeed, epoch, c.rank(),
                                  stores[r].mutable_ids());
      if (measured) {
        msgs[r] += out.msgs_sent;
        bytes[r] += out.bytes_offered;
      }
    };

    for (std::size_t e = 0; e < warmup_epochs; ++e) epoch_step(e, false);
    c.barrier();
    c.barrier();
    if (c.rank() == 0) {
      allocs_before = g_allocs.load(std::memory_order_relaxed);
      sw.reset();
    }
    c.barrier();
    for (std::size_t e = 0; e < epochs; ++e) {
      epoch_step(warmup_epochs + e, true);
    }
    c.barrier();
    if (c.rank() == 0) {
      elapsed_s = sw.seconds();
      allocs_after = g_allocs.load(std::memory_order_relaxed);
    }
  });

  ArmResult res;
  res.epochs = epochs;
  std::size_t total_msgs = 0;
  std::size_t total_bytes = 0;
  for (int r = 0; r < kRanks; ++r) {
    total_msgs += msgs[static_cast<std::size_t>(r)];
    total_bytes += bytes[static_cast<std::size_t>(r)];
  }
  const auto e = static_cast<double>(epochs);
  res.msgs_per_epoch = static_cast<double>(total_msgs) / e;
  res.allocs_per_epoch =
      static_cast<double>(allocs_after - allocs_before) / e;
  res.bytes_per_epoch = static_cast<double>(total_bytes) / e;
  res.epoch_ms = elapsed_s * 1e3 / e;
  return res;
}

std::string fmt(double v) {
  std::ostringstream oss;
  oss.precision(6);
  oss << v;
  return oss.str();
}

int run_check(const std::string& path) {
  std::ifstream in(path);
  DSHUF_CHECK(in.good(), "cannot open " << path);
  std::stringstream buf;
  buf << in.rdbuf();
  const json::Value doc = json::parse(buf.str());
  DSHUF_CHECK_EQ(doc.at("schema").as_string(), "dshuf.bench_exchange.v2",
                 "unexpected schema in " << path);
  const double workers = doc.at("config").at("workers").as_number();
  const json::Value& arm = doc.at("coalesced");
  const double msgs = arm.at("msgs_per_epoch").as_number();
  const double allocs = arm.at("allocs_per_epoch").as_number();
  DSHUF_CHECK_GT(msgs, 0.0, "bad msgs_per_epoch");
  DSHUF_CHECK_GT(arm.at("epoch_ms").as_number(), 0.0, "bad epoch_ms");
  // At most one frame per ordered rank pair, self included: coalescing
  // lost if any pair ever needs a second message.
  DSHUF_CHECK_LE(msgs, workers * workers,
                 "more than one message per rank pair per epoch");
  DSHUF_CHECK_LE(allocs, kMaxAllocsPerEpoch,
                 "the steady-state exchange started allocating");
  std::cout << "bench_exchange: " << path << " OK (" << fmt(msgs)
            << " msgs/epoch <= " << fmt(workers * workers) << ", "
            << fmt(allocs) << " allocs/epoch <= " << fmt(kMaxAllocsPerEpoch)
            << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ArgParser args("bench_exchange", "Coalesced exchange per-epoch baseline");
  args.flag("out", "", "write JSON results to this path");
  args.flag("check", "", "validate a previously written JSON file and exit");
  args.flag("quick", "false", "reduced epoch count (CI smoke)");
  if (!args.parse(argc, argv)) return 0;

  if (!args.get("check").empty()) return run_check(args.get("check"));

  const bool quick = args.get_bool("quick");
  const std::size_t warmup = 3;
  const std::size_t epochs = quick ? 4 : 12;
  const std::size_t quota = exchange_quota(kShard, kQ);

  const ArmResult arm = run_arm(warmup, epochs);
  std::cout << "coalesced: " << fmt(arm.msgs_per_epoch) << " msgs/epoch, "
            << fmt(arm.allocs_per_epoch) << " allocs/epoch, "
            << fmt(arm.bytes_per_epoch) << " bytes/epoch, "
            << fmt(arm.epoch_ms) << " ms/epoch\n";

  const std::string out_path = args.get("out");
  if (!out_path.empty()) {
    std::ostringstream j;
    j << "{\n  \"schema\": \"dshuf.bench_exchange.v2\",\n"
      << "  \"config\": {\"workers\": " << kRanks
      << ", \"shard\": " << kShard << ", \"q\": " << fmt(kQ)
      << ", \"quota\": " << quota
      << ", \"payload_bytes\": " << kPayloadBytes
      << ", \"epochs\": " << epochs << "},\n"
      << "  \"coalesced\": {\"msgs_per_epoch\": " << fmt(arm.msgs_per_epoch)
      << ", \"allocs_per_epoch\": " << fmt(arm.allocs_per_epoch)
      << ", \"bytes_per_epoch\": " << fmt(arm.bytes_per_epoch)
      << ", \"epoch_ms\": " << fmt(arm.epoch_ms) << "}\n}\n";
    // Round-trip through the parser before writing: the tool never emits
    // a file its own --check would reject.
    json::parse(j.str());
    std::ofstream out(out_path);
    DSHUF_CHECK(out.good(), "cannot write " << out_path);
    out << j.str();
    std::cout << "wrote " << out_path << "\n";
  }
  return 0;
}
