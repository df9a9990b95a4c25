// virtual_1024: the real exchange at M=1024 on netsim::VirtualWorld, in
// bench_scale's flat-arm configuration: shard 16, Q=1.0, 4 KiB payloads,
// 100 MB/s NICs, a bisection of 768 NICs, 5 us latency and a 16 us event
// quantum. In-memory ShardStores; one VirtualWorld::run per epoch, on one
// thread. Spans opened inside the fibers carry virtual time, so wall-clock
// figures come only from the benchmark's own calls around VirtualWorld::run.
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "netsim/virtual_comm.hpp"
#include "obs/metrics.hpp"
#include "shuffle/exchange_plan.hpp"
#include "shuffle/mpi_exchange.hpp"
#include "shuffle/shuffler.hpp"
#include "store_exchange.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dshuf;
using shuffle::SampleId;

constexpr std::size_t kShard = 16;
constexpr double kQ = 1.0;
constexpr std::size_t kPayloadBytes = 4096;
constexpr double kNicBps = 1e8;
constexpr double kBisectionBps = 768.0 * kNicBps;
constexpr double kLatencyS = 5e-6;
constexpr std::uint64_t kQuantumUs = 16;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kWarmupEpochs = 4;
constexpr double kEpochsPerSecond = 3.0;
constexpr std::size_t kMaxTracedEpochs = 3;

/// Payload of sample `id`: its id and a key-dependent fill, so a deposit
/// can tell a misrouted or torn payload from its own.
std::byte fill_byte(SampleId id, std::uint64_t key) {
  return static_cast<std::byte>((id * 131U + key) & 0xFFU);
}

struct Setup {
  std::vector<shuffle::ShardStore> stores;
  std::vector<shuffle::ExchangeScratch> scratch;
  std::vector<shuffle::ExchangeOutcome> outcomes;
  std::optional<netsim::VirtualWorld> world;
};

}  // namespace

void run_virtual_1024(const Options& opt, Report& rep) {
  const int m = opt.small ? 256 : 1024;
  const std::uint64_t seed = Rng(opt.seed).fork(0xF1).next();
  const std::uint64_t key = Rng(opt.seed).fork(0xF2).next();
  const std::size_t quota = shuffle::exchange_quota(kShard, kQ);
  const std::size_t warmup = opt.small ? 1 : kWarmupEpochs;
  const Plan plan{.setups = kSetups,
                  .units = opt.small ? 2 : timed_units(opt, kEpochsPerSecond, 4),
                  .max_traced = kMaxTracedEpochs};

  std::size_t bad_payloads = 0;
  const shuffle::PayloadFn payload = [key](SampleId id,
                                           std::vector<std::byte>& out) {
    const std::size_t at = out.size();
    out.resize(at + kPayloadBytes, fill_byte(id, key));
    std::memcpy(out.data() + at, &id, sizeof id);
  };
  const shuffle::DepositFn deposit =
      [key, &bad_payloads](SampleId id, std::span<const std::byte> body) {
        SampleId got = 0;
        if (body.size() == kPayloadBytes) std::memcpy(&got, body.data(), sizeof got);
        if (body.size() != kPayloadBytes || got != id ||
            body.back() != fill_byte(id, key)) {
          ++bad_payloads;
        }
      };

  netsim::VirtualWorldOptions wopts;
  wopts.caps.nic_out_bps = kNicBps;
  wopts.caps.nic_in_bps = kNicBps;
  wopts.caps.per_message_latency_s = kLatencyS;
  wopts.caps.fabric_bps = kBisectionBps;
  wopts.event_quantum_us = kQuantumUs;

  std::unique_ptr<Setup> s;
  auto epoch_body = [&](std::size_t epoch) {
    s->world->run([&](comm::Communicator& c) {
      const auto r = static_cast<std::size_t>(c.rank());
      s->outcomes[r] = shuffle::run_pls_exchange_epoch(
          c, s->stores[r], seed, epoch, kQ, kShard, payload, deposit,
          /*robust=*/nullptr, &s->scratch[r]);
      shuffle::post_exchange_local_shuffle(seed, epoch, c.rank(),
                                           s->stores[r].mutable_ids());
    });
  };

  std::vector<double> world_ms;
  auto setup = [&](std::size_t) {
    s.reset();
    s = std::make_unique<Setup>();
    SetupTimes st;
    std::uint64_t t = now_ns();
    for (int r = 0; r < m; ++r) {
      std::vector<SampleId> ids(kShard);
      for (std::size_t i = 0; i < kShard; ++i) {
        ids[i] = static_cast<SampleId>(static_cast<std::size_t>(r) * kShard + i);
      }
      s->stores.emplace_back(std::move(ids), kShard + quota);
    }
    s->scratch.resize(static_cast<std::size_t>(m));
    s->outcomes.resize(static_cast<std::size_t>(m));
    st.store_fill_ms = to_ms(now_ns() - t);

    t = now_ns();
    s->world.emplace(m, wopts);
    st.world_ms = to_ms(now_ns() - t);
    world_ms.push_back(st.world_ms);

    t = now_ns();
    for (std::size_t e = 0; e < warmup; ++e) epoch_body(e);
    st.warmup_ms = to_ms(now_ns() - t);
    return st;
  };

  std::size_t conserved_fail = 0;
  double virtual_us = 0;
  double switches = 0;
  double flows = 0;
  double refill = 0;
  ExchangeCounts counts;
  std::size_t peak = 0;
  std::uint64_t pool_misses = 0;
  std::size_t traced_epochs = 0;
  std::vector<std::uint8_t> seen(static_cast<std::size_t>(m) * kShard);
  double exchange_ms = 0;
  auto& reg = obs::Registry::instance();
  auto unit = [&](std::size_t u, bool traced) {
    const std::uint64_t miss0 = reg.counter("comm.pool.misses").value();
    const Stopwatch sw;
    {
      std::optional<obs::SpanGuard> span;
      if (traced) span.emplace("shuffle.exchange");
      epoch_body(warmup + u);
    }
    const UnitCost cost = sw.stop();

    const auto stats = s->world->last_run_stats();
    virtual_us += static_cast<double>(stats.virtual_makespan_us);
    switches += static_cast<double>(stats.context_switches);
    flows += static_cast<double>(stats.flows);
    refill += static_cast<double>(stats.refill_work);
    bool ok = counts.add(s->outcomes);
    std::fill(seen.begin(), seen.end(), 0);
    for (const auto& st : s->stores) {
      peak = std::max(peak, st.peak_occupancy());
      if (st.size() != kShard) ok = false;
      for (const SampleId id : st.ids()) {
        if (id >= seen.size() || seen[id]++ != 0) ok = false;
      }
    }
    if (!ok) ++conserved_fail;
    rep.epoch(ok);
    if (traced) {
      pool_misses += reg.counter("comm.pool.misses").value() - miss0;
      exchange_ms += to_ms(cost.wall_ns);
      ++traced_epochs;
    }
    return cost;
  };

  // The local shuffle runs inside the fibers, and an epoch is the one
  // benchmark-side call VirtualWorld::run, so nothing of it is left
  // unattributed.
  rep.absent({"comm.allreduce_ms", "comm.self_ms", "nn", "tensor", "data",
              "io", "sim", "step", "val_top1", "train_loss",
              "shuffle.local_shuffle_ms", "epoch.unattributed_ms",
              "epoch.unattributed_share"});
  const UnitTimes times = run_schedule(opt, rep, plan, setup, unit);
  report_end_to_end(rep, times.untraced,
                    static_cast<double>(kShard * static_cast<std::size_t>(m) *
                                        times.untraced.size()),
                    times);
  rep.metric("peak_storage_ratio",
             static_cast<double>(peak) / static_cast<double>(kShard), "ratio");
  const auto n = static_cast<double>(times.all.size());
  rep.metric("netsim.virtual_epoch_us", virtual_us / n, "us");
  rep.metric("netsim.context_switches", switches / n, "count");
  rep.metric("netsim.flows", flows / n, "count");
  rep.metric("netsim.refill_work", refill / n, "count");
  rep.metric("netsim.world_setup_ms", median(world_ms), "ms");
  counts.report(rep);
  std::uint64_t digest = 0;
  for (const auto& st : s->stores) {
    for (const SampleId id : st.ids()) digest = mix(digest, id);
  }
  rep.metric("shuffle.shard_digest", static_cast<double>(digest >> 12),
             "hash");
  if (conserved_fail > 0) {
    rep.fail(std::to_string(conserved_fail) +
             " epochs broke conservation, shard sizes or fell back");
  }
  if (peak > kShard + quota) rep.fail("occupancy exceeded shard + quota");
  if (bad_payloads > 0) {
    rep.fail(std::to_string(bad_payloads) + " payloads arrived corrupted");
  }
  if (traced_epochs > 0) {
    const auto te = static_cast<double>(traced_epochs);
    rep.metric("shuffle.exchange_ms", exchange_ms / te, "ms");
    rep.metric("shuffle.self_ms", exchange_ms / te, "ms");
    rep.metric("comm.pool_misses", static_cast<double>(pool_misses) / te,
               "count");
  }
  report_pool(rep);
}

}  // namespace perfbench
