#include "sim/trainer.hpp"

#include <algorithm>
#include <cmath>

#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "obs/metrics.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"

namespace dshuf::sim {

double evaluate(nn::Model& model, const data::InMemoryDataset& val,
                std::size_t max_samples, std::uint64_t seed) {
  DSHUF_CHECK_GT(val.size(), 0U, "empty validation set");
  std::vector<data::SampleId> ids(val.size());
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<data::SampleId>(i);
  }
  if (max_samples > 0 && max_samples < ids.size()) {
    Rng rng(seed);
    rng.shuffle(ids);
    ids.resize(max_samples);
  }
  nn::AccuracyMeter meter;
  constexpr std::size_t kChunk = 512;
  Tensor xbuf;
  std::vector<std::uint32_t> ybuf;
  for (std::size_t off = 0; off < ids.size(); off += kChunk) {
    const std::size_t n = std::min(kChunk, ids.size() - off);
    const std::span<const data::SampleId> chunk(ids.data() + off, n);
    val.gather_into(chunk, xbuf);
    val.gather_labels_into(chunk, ybuf);
    const Tensor& logits = model.forward(xbuf, /*training=*/false);
    meter.update(logits, ybuf);
  }
  return meter.value();
}

SimResult train_model(nn::Model& model, const data::InMemoryDataset& train,
                      const data::InMemoryDataset& val,
                      const data::TrainRegime& regime,
                      const SimConfig& config, const std::string& label_hint) {
  DSHUF_CHECK_GT(config.workers, 0U, "need at least one worker");
  DSHUF_CHECK_GT(config.local_batch, 1U,
                 "BatchNorm training needs local batch > 1");
  const std::size_t M = config.workers;
  const std::size_t b = config.local_batch;

  if (config.warm_start) model.load_state(*config.warm_start);

  // Initial partition (the paper's Fig. 2 permutation-as-partition).
  Rng part_rng = Rng(config.seed).fork(0x90);
  auto shards =
      config.dirichlet_alpha > 0.0
          ? data::partition_dataset_dirichlet(train, M,
                                              config.dirichlet_alpha,
                                              part_rng)
          : data::partition_dataset(train, M, config.partition, part_rng);
  std::unique_ptr<shuffle::Shuffler> shuffler;
  if (config.strategy == shuffle::Strategy::kPartial &&
      config.hierarchical_groups > 0) {
    shuffle::Topology topology;
    topology.groups = config.hierarchical_groups;
    topology.intra_fraction = config.hierarchical_intra_fraction;
    shuffler = std::make_unique<shuffle::PartialLocalShuffler>(
        std::move(shards), config.q, config.seed, topology);
  } else {
    shuffler = shuffle::make_shuffler(config.strategy, config.q,
                                      train.size(), std::move(shards),
                                      config.seed);
  }

  // Linear LR scaling with warmup (Goyal et al.), LARS at large scale.
  const auto global_batch = static_cast<double>(M * b);
  const float scaled_lr =
      regime.base_lr *
      static_cast<float>(global_batch /
                         static_cast<double>(regime.reference_batch));
  nn::MultiStepLr schedule(scaled_lr, regime.milestones, 0.1F,
                           regime.warmup_epochs);

  nn::SgdConfig opt_cfg;
  opt_cfg.lr = schedule.lr_at(0.0);
  opt_cfg.momentum = regime.momentum;
  opt_cfg.weight_decay = regime.weight_decay;
  if (regime.lars_above_workers > 0 && M > regime.lars_above_workers) {
    opt_cfg.lars_trust = regime.lars_trust;
  }
  nn::Sgd opt(model, opt_cfg);
  nn::SoftmaxCrossEntropy ce;

  // Importance-pick support: EMA of per-sample loss, fed to the partial
  // shuffler before each epoch's exchange.
  auto* pls = dynamic_cast<shuffle::PartialLocalShuffler*>(shuffler.get());
  const bool track_losses =
      pls != nullptr && config.pick_policy != shuffle::PickPolicy::kUniform;
  if (track_losses) pls->set_pick_policy(config.pick_policy);
  std::vector<float> ema_loss(track_losses ? train.size() : 0, 0.0F);
  auto update_ema = [&](std::span<const data::SampleId> ids,
                        const std::vector<float>& losses) {
    for (std::size_t i = 0; i < ids.size(); ++i) {
      float& e = ema_loss[ids[i]];
      e = e == 0.0F ? losses[i] : 0.5F * e + 0.5F * losses[i];
    }
  };

  SimResult result;
  result.label = label_hint.empty() ? shuffler->label() : label_hint;
  result.workers = M;

  // Each worker's b rows form one segment of the stacked batch, so batch
  // statistics and gradient sums stay per worker (nn/layer.hpp). Sync-BN
  // (the paper's suggested BN remedy, Section IV-A-1) is the same loop
  // with the whole M*b stack as one segment: global batch statistics and
  // one mean over the global batch, the same averaged gradient.
  const std::size_t segment = config.sync_batchnorm ? M * b : b;
  // Batch staging buffers outlive the epochs: after the first iteration
  // every gather reuses their capacity, so the steady state of the
  // training loop is allocation-free.
  std::vector<data::SampleId> ids;
  ids.reserve(M * b);
  Tensor xbuf;
  std::vector<std::uint32_t> ybuf;

  for (std::size_t epoch = 0; epoch < regime.epochs; ++epoch) {
    obs::SpanGuard epoch_span("sim.epoch",
                              {{"epoch", std::to_string(epoch)}});
    if (track_losses && epoch > 0) pls->set_sample_scores(ema_loss);
    {
      DSHUF_SPAN("sim.epoch.shuffle", {{"epoch", std::to_string(epoch)}});
      shuffler->begin_epoch(epoch);
    }
    // Iterations per epoch: every worker must have a full batch each
    // iteration (drop-last semantics, as PyTorch's DistributedSampler +
    // DataLoader(drop_last=True)).
    std::size_t min_order = SIZE_MAX;
    for (std::size_t w = 0; w < M; ++w) {
      min_order = std::min(min_order,
                           shuffler->local_order(static_cast<int>(w)).size());
    }
    const std::size_t iters = min_order / b;
    DSHUF_CHECK_GT(iters, 0U,
                   "shards too small for the batch size (shard "
                       << shuffler->local_order(0).size() << ", batch " << b
                       << ")");

    obs::SpanGuard compute_span("sim.epoch.compute",
                                {{"epoch", std::to_string(epoch)}});
    double loss_sum = 0;
    std::size_t loss_count = 0;
    for (std::size_t it = 0; it < iters; ++it) {
      const double frac_epoch =
          static_cast<double>(epoch) +
          static_cast<double>(it) / static_cast<double>(iters);
      opt.set_lr(schedule.lr_at(frac_epoch));
      model.zero_grad();
      // All M workers' minibatches as one stack, in worker order.
      ids.clear();
      for (std::size_t w = 0; w < M; ++w) {
        const auto& order = shuffler->local_order(static_cast<int>(w));
        const auto first =
            order.begin() + static_cast<std::ptrdiff_t>(it * b);
        ids.insert(ids.end(), first, first + static_cast<std::ptrdiff_t>(b));
      }
      train.gather_into(ids, xbuf);
      train.gather_labels_into(ids, ybuf);
      const Tensor& logits = model.forward(xbuf, /*training=*/true, segment);
      ce.forward(logits, ybuf, segment);
      for (const float l : ce.segment_losses()) loss_sum += l;
      loss_count += ce.segment_losses().size();
      if (track_losses) update_ema(ids, ce.per_sample_losses());
      model.backward(ce.grad());
      // Gradient-averaging allreduce over the segments' summed gradients
      // (a factor of exactly 1 under sync-BN's single segment).
      model.scale_grad(1.0F / static_cast<float>(M * b / segment));
      opt.step();
    }
    compute_span.finish();
    DSHUF_GAUGE("nn.workspace.bytes")
        .set(static_cast<std::int64_t>(model.workspace().bytes_reserved()));

    EpochRecord rec;
    rec.epoch = epoch;
    rec.train_loss = loss_sum / static_cast<double>(std::max<std::size_t>(
                                    1, loss_count));
    rec.lr = opt.lr();
    if (const auto* stats = shuffler->last_stats()) {
      rec.samples_exchanged = stats->total_sent();
      DSHUF_COUNTER("sim.samples_exchanged").add(rec.samples_exchanged);
      for (std::size_t w = 0; w < stats->peak_occupancy_per_worker.size();
           ++w) {
        const auto shard = shuffler->local_order(static_cast<int>(w)).size();
        if (shard > 0) {
          result.peak_storage_ratio = std::max(
              result.peak_storage_ratio,
              static_cast<double>(stats->peak_occupancy_per_worker[w]) /
                  static_cast<double>(shard));
        }
      }
    }
    const bool eval_now = (epoch % std::max<std::size_t>(1, config.eval_every)
                           == 0) ||
                          epoch + 1 == regime.epochs;
    if (eval_now && val.size() > 0) {
      DSHUF_SPAN("sim.epoch.eval", {{"epoch", std::to_string(epoch)}});
      rec.val_top1 =
          evaluate(model, val, config.max_eval_samples, config.seed ^ 0xEF);
      result.best_top1 = std::max(result.best_top1, rec.val_top1);
      result.final_top1 = rec.val_top1;
    }
    result.epochs.push_back(rec);
    // One telemetry window per epoch (no-op unless the sampler is on).
    obs::tick_timeseries_epoch(epoch);
    LOG_DEBUG << result.label << " epoch " << epoch << " loss "
              << rec.train_loss << " top1 " << rec.val_top1;
  }
  return result;
}

SimResult run_workload_experiment(const data::Workload& workload,
                                  const SimConfig& config) {
  auto split = data::make_class_clusters_split(workload.data);
  Rng model_rng = Rng(config.seed).fork(0x91);
  nn::Model model = nn::make_mlp(workload.model, model_rng);
  data::TrainRegime regime = workload.regime;
  if (config.epochs > 0) regime.epochs = config.epochs;
  return train_model(model, split.train, split.val, regime, config,
                     shuffle::strategy_label(config.strategy, config.q));
}

}  // namespace dshuf::sim
