// exchange_gs: the store-backed exchange alone at Q=1.0, the global-shuffle
// limit of PLS.
//
// Four rank threads each hold 4096 samples of 4 KiB in an MmapSampleStore.
// Per epoch: the exchange, removal of transmitted samples, advance_epoch
// and the local shuffle; no training. At Q=1.0 every sample is saved,
// removed and reclaimed each epoch, so the store is used write-heavy where
// dp_pls mostly reads. One timed unit is one epoch.
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "comm/comm.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "shuffle/exchange_plan.hpp"
#include "store_exchange.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dshuf;

constexpr int kRanks = 4;
constexpr double kQ = 1.0;
// 4-byte label + 1023 float features: 4 KiB per serialized sample.
constexpr std::size_t kFeatureDim = 1023;
constexpr std::size_t kClasses = 16;
constexpr std::size_t kSetups = 5;
constexpr std::size_t kWarmupEpochs = 3;
constexpr double kEpochsPerSecond = 20.0;
constexpr std::size_t kMaxTracedEpochs = 50;

struct Setup {
  ~Setup() {
    ranks.clear();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
  data::InMemoryDataset ds;
  std::size_t shard = 0;
  std::size_t quota = 0;
  std::filesystem::path dir;
  std::vector<std::unique_ptr<StoreRank>> ranks;
  std::optional<comm::World> world;
};

void exchange_epoch(Setup& s, std::uint64_t seed, std::size_t epoch) {
  s.world->run([&](comm::Communicator& c) {
    store_epoch(c, *s.ranks[static_cast<std::size_t>(c.rank())], seed, epoch,
                kQ, s.shard);
  });
}

}  // namespace

void run_exchange_gs(const Options& opt, Report& rep) {
  const std::size_t per_rank = opt.small ? 256 : 4096;
  const data::ClassClusterSpec spec{
      .num_classes = kClasses,
      .samples_per_class = per_rank * kRanks / kClasses,
      .feature_dim = kFeatureDim,
      .manifold_warp = 0.0,
      .seed = Rng(opt.seed).fork(0xE1).next()};
  const std::uint64_t seed = Rng(opt.seed).fork(0xE2).next();
  const std::size_t warmup = opt.small ? 1 : kWarmupEpochs;
  const Plan plan{.setups = kSetups,
                  .units = opt.small ? 3 : timed_units(opt, kEpochsPerSecond, 4),
                  .max_traced = kMaxTracedEpochs};

  std::unique_ptr<Setup> s;
  auto setup = [&](std::size_t i) {
    s.reset();
    s = std::make_unique<Setup>();
    SetupTimes st;
    std::uint64_t t = now_ns();
    s->ds = data::make_class_clusters(spec);
    Rng part_rng = Rng(seed).fork(0x90);
    auto shards = data::partition_dataset(
        s->ds, kRanks, data::PartitionScheme::kClassSorted, part_rng);
    s->shard = per_rank;
    s->quota = shuffle::exchange_quota(s->shard, kQ);
    st.dataset_ms = to_ms(now_ns() - t);

    t = now_ns();
    s->dir = opt.work_dir / ("stores" + std::to_string(i));
    for (int r = 0; r < kRanks; ++r) {
      s->ranks.push_back(std::make_unique<StoreRank>(
          std::move(shards[static_cast<std::size_t>(r)]), s->quota,
          s->dir / ("rank" + std::to_string(r)), s->ds));
    }
    st.store_fill_ms = to_ms(now_ns() - t);

    t = now_ns();
    s->world.emplace(kRanks);
    st.world_ms = to_ms(now_ns() - t);

    t = now_ns();
    for (std::size_t e = 0; e < warmup; ++e) exchange_epoch(*s, seed, e);
    st.warmup_ms = to_ms(now_ns() - t);
    return st;
  };

  StoreEpochs epochs;
  auto unit = [&](std::size_t u, bool traced) {
    epochs.begin(s->ranks, traced);
    const Stopwatch sw;
    exchange_epoch(*s, seed, warmup + u);
    const UnitCost cost = sw.stop();
    epochs.end(rep, s->ranks, s->ds.size(), s->shard, s->quota, traced,
               cost.wall_ns);
    return cost;
  };

  // The exchange's point-to-point traffic is inside shuffle.exchange; the
  // benchmark makes no call into comm itself.
  rep.absent({"comm.allreduce_ms", "comm.self_ms", "nn", "tensor", "data",
              "netsim", "sim", "step", "val_top1", "train_loss"});
  const UnitTimes times = run_schedule(opt, rep, plan, setup, unit);
  report_end_to_end(
      rep, times.untraced,
      static_cast<double>(per_rank * kRanks * times.untraced.size()), times);
  epochs.report(rep, s->ranks, s->ds, s->shard);
}

}  // namespace perfbench
