// sim::train_model runs one forward/backward over all M workers' stacked
// minibatches, with every cross-row reduction taken per worker segment
// (nn/layer.hpp). This suite keeps the trainer it replaced — one
// forward/backward per worker in turn, and sync-BN as a separate fused
// pass — as an oracle, and requires the two to agree bit for bit on the
// trained weights, the BatchNorm running statistics, and every epoch's
// training loss and validation accuracy.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "data/partition.hpp"
#include "data/synthetic.hpp"
#include "nn/conv.hpp"
#include "nn/loss.hpp"
#include "sim/trainer.hpp"

namespace dshuf::sim {
namespace {

/// The per-worker training loop sim::train_model ran before it stacked
/// the workers: same partition, shuffler, schedule and optimiser, but
/// M separate b-row passes per iteration.
SimResult oracle_train(nn::Model& model, const data::InMemoryDataset& train,
                       const data::InMemoryDataset& val,
                       const data::TrainRegime& regime,
                       const SimConfig& config) {
  const std::size_t M = config.workers;
  const std::size_t b = config.local_batch;
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
  result.workers = M;
  for (std::size_t epoch = 0; epoch < regime.epochs; ++epoch) {
    if (track_losses && epoch > 0) pls->set_sample_scores(ema_loss);
    shuffler->begin_epoch(epoch);
    std::size_t min_order = SIZE_MAX;
    for (std::size_t w = 0; w < M; ++w) {
      min_order = std::min(
          min_order, shuffler->local_order(static_cast<int>(w)).size());
    }
    const std::size_t iters = min_order / b;
    double loss_sum = 0;
    std::size_t loss_count = 0;
    Tensor xbuf;
    std::vector<std::uint32_t> ybuf;
    std::vector<data::SampleId> fused;
    for (std::size_t it = 0; it < iters; ++it) {
      const double frac_epoch =
          static_cast<double>(epoch) +
          static_cast<double>(it) / static_cast<double>(iters);
      opt.set_lr(schedule.lr_at(frac_epoch));
      model.zero_grad();
      if (config.sync_batchnorm) {
        fused.clear();
        for (std::size_t w = 0; w < M; ++w) {
          const auto& order = shuffler->local_order(static_cast<int>(w));
          fused.insert(
              fused.end(),
              order.begin() + static_cast<std::ptrdiff_t>(it * b),
              order.begin() + static_cast<std::ptrdiff_t>((it + 1) * b));
        }
        train.gather_into(fused, xbuf);
        train.gather_labels_into(fused, ybuf);
        const Tensor& logits = model.forward(xbuf, /*training=*/true);
        loss_sum += ce.forward(logits, ybuf);
        ++loss_count;
        if (track_losses) update_ema(fused, ce.per_sample_losses());
        model.backward(ce.grad());
      } else {
        for (std::size_t w = 0; w < M; ++w) {
          const auto& order = shuffler->local_order(static_cast<int>(w));
          const std::span<const data::SampleId> batch(order.data() + it * b,
                                                      b);
          train.gather_into(batch, xbuf);
          train.gather_labels_into(batch, ybuf);
          const Tensor& logits = model.forward(xbuf, /*training=*/true);
          loss_sum += ce.forward(logits, ybuf);
          ++loss_count;
          if (track_losses) update_ema(batch, ce.per_sample_losses());
          model.backward(ce.grad());
        }
        model.scale_grad(1.0F / static_cast<float>(M));
      }
      opt.step();
    }
    EpochRecord rec;
    rec.epoch = epoch;
    rec.train_loss = loss_sum / static_cast<double>(std::max<std::size_t>(
                                    1, loss_count));
    rec.lr = opt.lr();
    const bool eval_now =
        (epoch % std::max<std::size_t>(1, config.eval_every) == 0) ||
        epoch + 1 == regime.epochs;
    if (eval_now && val.size() > 0) {
      rec.val_top1 =
          evaluate(model, val, config.max_eval_samples, config.seed ^ 0xEF);
    }
    result.epochs.push_back(rec);
  }
  return result;
}

/// Float equality on the bit pattern (so -0 != +0), with any two NaNs
/// equal: payloads carry no meaning here.
bool same_bits(float a, float b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

void expect_same_floats(const std::vector<float>& got,
                        const std::vector<float>& want, const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  std::size_t diffs = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (!same_bits(got[i], want[i])) {
      if (diffs++ == 0) first = i;
    }
  }
  EXPECT_EQ(diffs, 0U) << what << ": " << diffs << " of " << got.size()
                       << " values differ; first at " << first << " ("
                       << got[first] << " vs " << want[first] << ")";
}

enum class Arch { kMlp, kCnn };

struct Case {
  Arch arch = Arch::kMlp;
  nn::NormKind norm = nn::NormKind::kBatchNorm;
  std::size_t workers = 4;
  std::size_t batch = 8;
  shuffle::Strategy strategy = shuffle::Strategy::kPartial;
  double q = 0.3;
  shuffle::PickPolicy pick = shuffle::PickPolicy::kUniform;
  bool sync_bn = false;
  int groups = 0;
  double dirichlet_alpha = 0.0;
  std::size_t epochs = 3;
};

nn::Model build_model(const Case& c, std::size_t features,
                      std::size_t classes) {
  Rng rng(4242);
  if (c.arch == Arch::kCnn) {
    nn::CnnSpec spec;
    spec.input_length = features;
    spec.channels = {4, 6};
    spec.kernel = 3;
    spec.pool = 2;
    spec.num_classes = classes;
    spec.norm = c.norm;
    return nn::make_cnn(spec, rng);
  }
  nn::MlpSpec spec;
  spec.input_dim = features;
  spec.hidden = {24, 20};
  spec.num_classes = classes;
  spec.norm = c.norm;
  spec.groups = 4;
  return nn::make_mlp(spec, rng);
}

void expect_stacked_matches_oracle(const Case& c) {
  data::ClassClusterSpec dspec;
  dspec.num_classes = 6;
  dspec.samples_per_class = 60;
  dspec.feature_dim = 16;
  dspec.seed = 31;
  const auto split = data::make_class_clusters_split(dspec);

  data::TrainRegime regime;
  regime.epochs = c.epochs;
  regime.base_lr = 0.05F;
  regime.reference_batch = 32;
  regime.milestones = {2.0};
  regime.warmup_epochs = 1.0;

  SimConfig cfg;
  cfg.workers = c.workers;
  cfg.local_batch = c.batch;
  cfg.strategy = c.strategy;
  cfg.q = c.q;
  cfg.pick_policy = c.pick;
  cfg.sync_batchnorm = c.sync_bn;
  cfg.hierarchical_groups = c.groups;
  cfg.dirichlet_alpha = c.dirichlet_alpha;
  cfg.max_eval_samples = 0;
  cfg.seed = 97;

  nn::Model stacked = build_model(c, dspec.feature_dim, dspec.num_classes);
  nn::Model oracle = build_model(c, dspec.feature_dim, dspec.num_classes);
  const SimResult got =
      train_model(stacked, split.train, split.val, regime, cfg, "stacked");
  const SimResult want = oracle_train(oracle, split.train, split.val, regime,
                                      cfg);

  expect_same_floats(stacked.state(), oracle.state(), "weights");
  expect_same_floats(stacked.buffer_state(), oracle.buffer_state(),
                     "running statistics");
  ASSERT_EQ(got.epochs.size(), want.epochs.size());
  for (std::size_t e = 0; e < got.epochs.size(); ++e) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.epochs[e].train_loss),
              std::bit_cast<std::uint64_t>(want.epochs[e].train_loss))
        << "epoch " << e << " train_loss " << got.epochs[e].train_loss
        << " vs " << want.epochs[e].train_loss;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.epochs[e].val_top1),
              std::bit_cast<std::uint64_t>(want.epochs[e].val_top1))
        << "epoch " << e << " val_top1";
    EXPECT_TRUE(same_bits(got.epochs[e].lr, want.epochs[e].lr));
  }
}

TEST(TrainerOracle, BatchNormMlp) {
  expect_stacked_matches_oracle({});
}

TEST(TrainerOracle, GroupNormMlp) {
  expect_stacked_matches_oracle({.norm = nn::NormKind::kGroupNorm});
}

TEST(TrainerOracle, NoNormMlp) {
  expect_stacked_matches_oracle({.norm = nn::NormKind::kNone});
}

TEST(TrainerOracle, BatchNormCnn) {
  expect_stacked_matches_oracle({.arch = Arch::kCnn});
}

TEST(TrainerOracle, GroupNormCnn) {
  expect_stacked_matches_oracle(
      {.arch = Arch::kCnn, .norm = nn::NormKind::kGroupNorm});
}

// Without a norm layer after it, the conv bias gradient is no longer a
// near-cancelling sum (whose per-segment parts are exact in float), so
// this case is the one that sees the bias gradient's segments.
TEST(TrainerOracle, NoNormCnn) {
  expect_stacked_matches_oracle(
      {.arch = Arch::kCnn, .norm = nn::NormKind::kNone});
}

TEST(TrainerOracle, SyncBatchNorm) {
  expect_stacked_matches_oracle({.sync_bn = true});
}

TEST(TrainerOracle, ImportancePicks) {
  expect_stacked_matches_oracle({.pick = shuffle::PickPolicy::kHighLoss});
  expect_stacked_matches_oracle({.pick = shuffle::PickPolicy::kLowLoss});
}

// The grouped exchange plan of Section V-F: two groups of two workers.
TEST(TrainerOracle, GroupedTopology) {
  expect_stacked_matches_oracle({.groups = 2});
}

// Non-IID shards of unequal sizes: the epoch runs as many iterations as
// the smallest shard allows.
TEST(TrainerOracle, DirichletShards) {
  expect_stacked_matches_oracle({.dirichlet_alpha = 1.0});
}

TEST(TrainerOracle, LocalAndGlobalStrategies) {
  expect_stacked_matches_oracle({.strategy = shuffle::Strategy::kLocal});
  expect_stacked_matches_oracle({.strategy = shuffle::Strategy::kGlobal});
}

// Stacks whose row count is not a multiple of any vector width, and
// segments of the minimum BatchNorm size.
TEST(TrainerOracle, OddStackShapes) {
  expect_stacked_matches_oracle({.workers = 3, .batch = 5});
  expect_stacked_matches_oracle({.workers = 5, .batch = 2, .epochs = 2});
  expect_stacked_matches_oracle(
      {.arch = Arch::kCnn, .workers = 3, .batch = 3, .epochs = 2});
  expect_stacked_matches_oracle({.norm = nn::NormKind::kGroupNorm,
                                 .workers = 7,
                                 .batch = 3,
                                 .epochs = 2});
}

// The benchmark's shape: 16 workers of 8 rows, 128-row stacks.
TEST(TrainerOracle, SixteenWorkersOfEight) {
  expect_stacked_matches_oracle({.workers = 16, .batch = 8, .epochs = 2});
  expect_stacked_matches_oracle({.norm = nn::NormKind::kGroupNorm,
                                 .workers = 16,
                                 .batch = 8,
                                 .epochs = 2});
}

}  // namespace
}  // namespace dshuf::sim
