// dp_pls: data-parallel PLS training on the threaded comm::World.
//
// Two rank threads (plus their two BatchLoader producers: four threads)
// train replicas of the imagenet1k-resnet50 proxy MLP on a class-sorted
// partition, each rank's shard in an MmapSampleStore capped at
// (1+Q) * shard. Per epoch: the store-backed Q=0.3 exchange, removal of
// transmitted samples, advance_epoch, the local shuffle, and a BatchLoader
// over the store; per step: forward/backward, allreduce_sum of the
// gradients, one SGD step. One timed unit is one epoch, bracketed by
// World::run's fork and join.
#include <filesystem>
#include <memory>
#include <optional>
#include <vector>

#include "comm/comm.hpp"
#include "data/batch_loader.hpp"
#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "data/workloads.hpp"
#include "nn/builder.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"
#include "obs/metrics.hpp"
#include "shuffle/exchange_plan.hpp"
#include "sim/trainer.hpp"
#include "store_exchange.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using namespace dshuf;

constexpr int kRanks = 2;
constexpr std::size_t kBatch = 32;
constexpr double kQ = 0.3;
constexpr std::size_t kSetups = 9;
constexpr std::size_t kWarmupEpochs = 2;
constexpr double kEpochsPerSecond = 6.0;
constexpr std::size_t kMaxTracedEpochs = 10;

/// One rank's model replica and its step state.
struct Replica {
  Replica(const nn::MlpSpec& spec, std::uint64_t seed, nn::SgdConfig cfg)
      : model([&] {
          Rng rng = Rng(seed).fork(0x91);
          return nn::make_mlp(spec, rng);
        }()),
        opt(model, cfg) {}
  nn::Model model;
  nn::Sgd opt;
  nn::SoftmaxCrossEntropy ce;
  std::vector<double> grads;
  double loss_sum = 0;
  std::size_t steps = 0;
  std::vector<double> step_ms;
};

/// Averages the gradients across ranks with one allreduce_sum.
void allreduce_mean(comm::Communicator& c, nn::Model& model,
                    std::vector<double>& buf) {
  buf.clear();
  for (nn::Param* p : model.param_refs()) {
    buf.insert(buf.end(), p->grad.vec().begin(), p->grad.vec().end());
  }
  const std::vector<double> sum = c.allreduce_sum(buf);
  const double inv = 1.0 / static_cast<double>(c.size());
  std::size_t i = 0;
  for (nn::Param* p : model.param_refs()) {
    for (float& g : p->grad.vec()) g = static_cast<float>(sum[i++] * inv);
  }
}

struct Setup {
  ~Setup() {
    ranks.clear();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
  data::TrainValSplit split;
  std::size_t shard = 0;
  std::size_t quota = 0;
  std::filesystem::path dir;
  std::vector<std::unique_ptr<StoreRank>> ranks;
  std::vector<std::unique_ptr<Replica>> replicas;
  std::optional<comm::World> world;
};

void train_epoch(Setup& s, std::uint64_t seed, std::size_t epoch,
                 bool traced) {
  const std::size_t dim = s.split.train.feature_dim();
  s.world->run([&](comm::Communicator& c) {
    const auto r = static_cast<std::size_t>(c.rank());
    StoreRank& sr = *s.ranks[r];
    Replica& rep = *s.replicas[r];
    store_epoch(c, sr, seed, epoch, kQ, s.shard);
    std::optional<data::BatchLoader> loader;
    {
      const Timed t(sr.probe, Call::kLoaderStart);
      loader.emplace(*sr.payloads, dim, sr.ids.ids(), kBatch);
    }
    rep.loss_sum = 0;
    rep.steps = 0;
    for (std::size_t i = 0; i < loader->num_batches(); ++i) {
      const std::uint64_t t0 = traced ? now_ns() : 0;
      std::optional<data::BatchLoader::Batch> batch;
      {
        const Timed t(sr.probe, Call::kDataWait);
        batch = loader->next();
      }
      DSHUF_CHECK(batch.has_value(), "loader ended early");
      {
        const Timed t(sr.probe, Call::kForward);
        rep.model.zero_grad();
        const Tensor& logits = rep.model.forward(batch->features, true);
        rep.loss_sum += rep.ce.forward(logits, batch->labels);
      }
      {
        const Timed t(sr.probe, Call::kBackward);
        rep.model.backward(rep.ce.grad());
      }
      {
        const Timed t(sr.probe, Call::kAllreduce);
        allreduce_mean(c, rep.model, rep.grads);
      }
      {
        const Timed t(sr.probe, Call::kOptimizer);
        rep.opt.step();
      }
      ++rep.steps;
      if (traced) rep.step_ms.push_back(to_ms(now_ns() - t0));
    }
  });
}

}  // namespace

void run_dp_pls(const Options& opt, Report& rep) {
  data::Workload wl = data::find_workload("imagenet1k-resnet50");
  wl.data.samples_per_class = opt.small ? 32 : 416;
  wl.data.seed = Rng(opt.seed).fork(0xD1).next();
  const std::uint64_t seed = Rng(opt.seed).fork(0xD2).next();
  const float lr = wl.regime.base_lr * static_cast<float>(kRanks * kBatch) /
                   static_cast<float>(wl.regime.reference_batch);
  const nn::SgdConfig sgd{.lr = lr,
                          .momentum = wl.regime.momentum,
                          .weight_decay = wl.regime.weight_decay};
  const std::size_t warmup = opt.small ? 1 : kWarmupEpochs;
  const Plan plan{.setups = kSetups,
                  .units = opt.small ? 3 : timed_units(opt, kEpochsPerSecond, 4),
                  .max_traced = kMaxTracedEpochs};

  std::unique_ptr<Setup> s;
  auto setup = [&](std::size_t i) {
    s.reset();  // the previous set-up's stores go before the next fills
    s = std::make_unique<Setup>();
    SetupTimes st;
    std::uint64_t t = now_ns();
    s->split = data::make_class_clusters_split(wl.data);
    Rng part_rng = Rng(seed).fork(0x90);
    auto shards = data::partition_dataset(
        s->split.train, kRanks, data::PartitionScheme::kClassSorted, part_rng);
    s->shard = shards[0].size();
    s->quota = shuffle::exchange_quota(s->shard, kQ);
    st.dataset_ms = to_ms(now_ns() - t);

    t = now_ns();
    s->dir = opt.work_dir / ("stores" + std::to_string(i));
    for (int r = 0; r < kRanks; ++r) {
      s->ranks.push_back(std::make_unique<StoreRank>(
          std::move(shards[static_cast<std::size_t>(r)]), s->quota,
          s->dir / ("rank" + std::to_string(r)), s->split.train));
    }
    st.store_fill_ms = to_ms(now_ns() - t);

    t = now_ns();
    s->world.emplace(kRanks);
    for (int r = 0; r < kRanks; ++r) {
      s->replicas.push_back(std::make_unique<Replica>(wl.model, seed, sgd));
    }
    st.world_ms = to_ms(now_ns() - t);

    t = now_ns();
    for (std::size_t e = 0; e < warmup; ++e) train_epoch(*s, seed, e, false);
    st.warmup_ms = to_ms(now_ns() - t);
    return st;
  };

  StoreEpochs epochs;
  std::uint64_t flops = 0;
  std::uint64_t compute_ns = 0;
  auto& gemm_flops = obs::Registry::instance().counter("tensor.gemm.flops");
  auto unit = [&](std::size_t u, bool traced) {
    epochs.begin(s->ranks, traced);
    const std::uint64_t flops0 = gemm_flops.value();
    const Stopwatch sw;
    train_epoch(*s, seed, warmup + u, traced);
    const UnitCost cost = sw.stop();
    if (traced) {
      flops += gemm_flops.value() - flops0;
      for (const auto& r : s->ranks) {
        compute_ns +=
            r->probe.ns(Call::kForward) + r->probe.ns(Call::kBackward);
      }
    }
    epochs.end(rep, s->ranks, s->split.train.size(), s->shard, s->quota,
               traced, cost.wall_ns);
    return cost;
  };

  rep.absent({"netsim", "sim"});
  const UnitTimes times = run_schedule(opt, rep, plan, setup, unit);
  const double samples_per_epoch =
      static_cast<double>(s->shard / kBatch * kBatch * kRanks);
  report_end_to_end(
      rep, times.untraced,
      samples_per_epoch * static_cast<double>(times.untraced.size()), times);
  epochs.report(rep, s->ranks, s->split.train, s->shard);

  // Replicas must agree bit for bit: the allreduce is deterministic.
  const std::vector<float> state0 = s->replicas[0]->model.state();
  for (std::size_t r = 1; r < s->replicas.size(); ++r) {
    if (s->replicas[r]->model.state() != state0) {
      rep.fail("replica " + std::to_string(r) + " diverged from rank 0");
    }
  }
  double loss = 0;
  std::size_t loss_steps = 0;
  for (const auto& r : s->replicas) {
    loss += r->loss_sum;
    loss_steps += r->steps;
  }
  rep.metric("train_loss", loss / static_cast<double>(loss_steps), "nats");
  rep.metric("val_top1",
             sim::evaluate(s->replicas[0]->model, s->split.val,
                           /*max_samples=*/0, seed),
             "fraction");

  if (opt.trace) {
    rep.metric("tensor.gemm_gflops",
               static_cast<double>(flops) / static_cast<double>(compute_ns),
               "GF/s");
    std::vector<double> step_ms;
    for (const auto& r : s->replicas) {
      step_ms.insert(step_ms.end(), r->step_ms.begin(), r->step_ms.end());
    }
    rep.metric("step.ms_p50", quantile(step_ms, 0.5), "ms");
    rep.metric("step.ms_p99", quantile(step_ms, 0.99), "ms");
    rep.metric("step.count", static_cast<double>(step_ms.size()), "count");
  }
}

}  // namespace perfbench
