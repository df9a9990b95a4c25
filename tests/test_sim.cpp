#include "sim/trainer.hpp"

#include <cmath>

#include <gtest/gtest.h>

#include "nn/loss.hpp"
#include "sim/transfer.hpp"

namespace dshuf::sim {
namespace {

data::Workload tiny_workload() {
  data::Workload w = data::find_workload("imagenet1k-resnet50");
  w.data.num_classes = 8;
  w.data.samples_per_class = 32;
  w.data.feature_dim = 12;
  w.model.input_dim = 12;
  w.model.num_classes = 8;
  w.model.hidden = {24};
  w.regime.epochs = 6;
  w.regime.milestones = {4};
  w.regime.warmup_epochs = 1.0;
  w.regime.reference_batch = 32;  // keep the scaled LR usable at M*b = 32
  return w;
}

SimConfig tiny_config(shuffle::Strategy s, double q = 0.0) {
  SimConfig c;
  c.workers = 4;
  c.local_batch = 8;
  c.strategy = s;
  c.q = q;
  c.epochs = 6;
  c.seed = 77;
  c.max_eval_samples = 0;
  return c;
}

TEST(Trainer, GlobalShufflingLearnsTheTask) {
  const auto r = run_workload_experiment(tiny_workload(),
                                         tiny_config(shuffle::Strategy::kGlobal));
  EXPECT_GT(r.best_top1, 0.5);  // well above the 12.5% chance level
  EXPECT_EQ(r.epochs.size(), 6U);
  // Loss decreases from first to last epoch.
  EXPECT_LT(r.epochs.back().train_loss, r.epochs.front().train_loss);
}

TEST(Trainer, DeterministicForSeed) {
  const auto a = run_workload_experiment(tiny_workload(),
                                         tiny_config(shuffle::Strategy::kGlobal));
  const auto b = run_workload_experiment(tiny_workload(),
                                         tiny_config(shuffle::Strategy::kGlobal));
  ASSERT_EQ(a.epochs.size(), b.epochs.size());
  for (std::size_t e = 0; e < a.epochs.size(); ++e) {
    EXPECT_DOUBLE_EQ(a.epochs[e].train_loss, b.epochs[e].train_loss);
    EXPECT_DOUBLE_EQ(a.epochs[e].val_top1, b.epochs[e].val_top1);
  }
}

TEST(Trainer, PartialReportsExchangeAndStorageBound) {
  auto cfg = tiny_config(shuffle::Strategy::kPartial, 0.25);
  const auto r = run_workload_experiment(tiny_workload(), cfg);
  EXPECT_GT(r.epochs.front().samples_exchanged, 0U);
  EXPECT_NEAR(r.peak_storage_ratio, 1.25, 0.05);
}

TEST(Trainer, GlobalAndLocalReportNoExchange) {
  for (auto s : {shuffle::Strategy::kGlobal, shuffle::Strategy::kLocal}) {
    const auto r = run_workload_experiment(tiny_workload(), tiny_config(s));
    for (const auto& e : r.epochs) EXPECT_EQ(e.samples_exchanged, 0U);
  }
}

TEST(Trainer, WarmStartBeginsFromGivenWeights) {
  auto w = tiny_workload();
  // First run to produce weights.
  auto cfg = tiny_config(shuffle::Strategy::kGlobal);
  auto split = data::make_class_clusters_split(w.data);
  Rng mrng = Rng(cfg.seed).fork(0x91);
  nn::Model model = nn::make_mlp(w.model, mrng);
  auto regime = w.regime;
  regime.epochs = 4;
  train_model(model, split.train, split.val, regime, cfg, "pretrain");
  const double pre_acc = evaluate(model, split.val, 0, 1);

  // Warm-started run must begin at that accuracy level (epoch 0 already
  // good), unlike a cold start.
  SimConfig warm = cfg;
  warm.warm_start = model.state();
  warm.epochs = 2;
  regime.epochs = 2;
  regime.base_lr = 1e-4F;  // tiny LR: accuracy should stay put
  Rng mrng2 = Rng(99).fork(0x91);
  nn::Model model2 = nn::make_mlp(w.model, mrng2);
  const auto r = train_model(model2, split.train, split.val, regime, warm,
                             "warm");
  EXPECT_GT(r.epochs.front().val_top1, pre_acc - 0.1);
}

TEST(Trainer, RejectsBatchLargerThanShard) {
  auto cfg = tiny_config(shuffle::Strategy::kLocal);
  cfg.workers = 64;     // shard = 4 samples
  cfg.local_batch = 8;  // > shard
  EXPECT_THROW(run_workload_experiment(tiny_workload(), cfg), CheckError);
}

TEST(Evaluate, SubsamplingIsDeterministic) {
  auto w = tiny_workload();
  auto split = data::make_class_clusters_split(w.data);
  Rng mrng = Rng(3).fork(0x91);
  nn::Model model = nn::make_mlp(w.model, mrng);
  const double a = evaluate(model, split.val, 20, 5);
  const double b = evaluate(model, split.val, 20, 5);
  EXPECT_DOUBLE_EQ(a, b);
}

// ------------------------- Section IV-A as executable propositions ------

/// Average gradient over M workers of batch b from the same sample union.
std::vector<float> averaged_gradient(
    nn::Model& model, const data::InMemoryDataset& ds,
    const std::vector<std::vector<data::SampleId>>& worker_batches) {
  nn::SoftmaxCrossEntropy ce;
  model.zero_grad();
  for (const auto& batch : worker_batches) {
    const Tensor x = ds.gather(batch);
    const auto y = ds.gather_labels(batch);
    const Tensor logits = model.forward(x, true);
    ce.forward(logits, y);
    model.backward(ce.grad());
  }
  model.scale_grad(1.0F / static_cast<float>(worker_batches.size()));
  return model.gradients();
}

// The paper's gradient-equivalence claim (Section IV-A): for synchronous
// SGD the averaged gradient depends only on the UNION of the samples in
// the global batch, not on which worker holds which sample — by the
// commutative property of addition. Holds exactly for batch-composition-
// independent models (no BatchNorm).
TEST(GradientEquivalence, HoldsWithoutBatchNorm) {
  data::ClassClusterSpec dspec{.num_classes = 4,
                               .samples_per_class = 16,
                               .feature_dim = 8,
                               .seed = 21};
  const auto ds = data::make_class_clusters(dspec);
  nn::MlpSpec mspec{.input_dim = 8,
                    .hidden = {16},
                    .num_classes = 4,
                    .norm = nn::NormKind::kNone};
  Rng mrng(5);
  nn::Model model = nn::make_mlp(mspec, mrng);

  // Assignment A: workers get contiguous batches; assignment B: the same
  // 16 samples dealt round-robin (a different partial-local realisation of
  // the same global permutation).
  std::vector<data::SampleId> pool{3, 9, 12, 20, 25, 31, 33, 40,
                                   44, 47, 50, 52, 55, 58, 60, 63};
  std::vector<std::vector<data::SampleId>> a(4), bt(4);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    a[i / 4].push_back(pool[i]);
    bt[i % 4].push_back(pool[i]);
  }
  const auto ga = averaged_gradient(model, ds, a);
  const auto gb = averaged_gradient(model, ds, bt);
  ASSERT_EQ(ga.size(), gb.size());
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_NEAR(ga[i], gb[i], 1e-5F) << "grad[" << i << "]";
  }
}

// ... and the paper's stated limitation (Section IV-A-1): with BatchNorm
// the equivalence breaks, because batch statistics depend on which worker
// a sample is batched with.
TEST(GradientEquivalence, BreaksWithBatchNorm) {
  data::ClassClusterSpec dspec{.num_classes = 4,
                               .samples_per_class = 16,
                               .feature_dim = 8,
                               .seed = 21};
  const auto ds = data::make_class_clusters(dspec);
  nn::MlpSpec mspec{.input_dim = 8,
                    .hidden = {16},
                    .num_classes = 4,
                    .norm = nn::NormKind::kBatchNorm};
  Rng mrng(5);
  nn::Model model = nn::make_mlp(mspec, mrng);

  std::vector<data::SampleId> pool{3, 9, 12, 20, 25, 31, 33, 40,
                                   44, 47, 50, 52, 55, 58, 60, 63};
  std::vector<std::vector<data::SampleId>> a(4), bt(4);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    a[i / 4].push_back(pool[i]);
    bt[i % 4].push_back(pool[i]);
  }
  const auto ga = averaged_gradient(model, ds, a);
  const auto gb = averaged_gradient(model, ds, bt);
  double max_diff = 0;
  for (std::size_t i = 0; i < ga.size(); ++i) {
    max_diff = std::max(max_diff, std::fabs(double(ga[i]) - gb[i]));
  }
  EXPECT_GT(max_diff, 1e-4);
}

// GroupNorm restores the equivalence — the paper's suggested remedy.
TEST(GradientEquivalence, RestoredByGroupNorm) {
  data::ClassClusterSpec dspec{.num_classes = 4,
                               .samples_per_class = 16,
                               .feature_dim = 8,
                               .seed = 21};
  const auto ds = data::make_class_clusters(dspec);
  nn::MlpSpec mspec{.input_dim = 8,
                    .hidden = {16},
                    .num_classes = 4,
                    .norm = nn::NormKind::kGroupNorm,
                    .groups = 4};
  Rng mrng(5);
  nn::Model model = nn::make_mlp(mspec, mrng);

  std::vector<data::SampleId> pool{3, 9, 12, 20, 25, 31, 33, 40,
                                   44, 47, 50, 52, 55, 58, 60, 63};
  std::vector<std::vector<data::SampleId>> a(4), bt(4);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    a[i / 4].push_back(pool[i]);
    bt[i % 4].push_back(pool[i]);
  }
  const auto ga = averaged_gradient(model, ds, a);
  const auto gb = averaged_gradient(model, ds, bt);
  for (std::size_t i = 0; i < ga.size(); ++i) {
    EXPECT_NEAR(ga[i], gb[i], 1e-5F);
  }
}

// -------------------------------------------------------------- transfer --

TEST(Transfer, CopyTrunkPreservesAllButHead) {
  nn::MlpSpec spec{.input_dim = 6, .hidden = {12}, .num_classes = 10};
  Rng r1(1);
  Rng r2(2);
  nn::Model src = nn::make_mlp(spec, r1);
  nn::MlpSpec down = spec;
  down.num_classes = 3;
  nn::Model dst = nn::make_mlp(down, r2);
  copy_trunk(src, dst);
  const auto sp = src.params();
  const auto dp = dst.params();
  for (std::size_t i = 0; i + 2 < sp.size(); ++i) {
    EXPECT_EQ(sp[i]->value.vec(), dp[i]->value.vec());
  }
  // Head differs in shape (10 vs 3 classes).
  EXPECT_NE(sp.back()->value.size(), dp.back()->value.size());
}

TEST(Transfer, PretrainingHelpsDownstream) {
  data::TaxonomySpec tspec{.coarse_classes = 4,
                           .fine_per_coarse = 3,
                           .samples_per_fine = 24,
                           .feature_dim = 12,
                           .seed = 8};
  const auto tax = data::make_taxonomy(tspec);

  TransferConfig cfg;
  cfg.trunk = nn::MlpSpec{.input_dim = 12, .hidden = {24}, .num_classes = 1};
  cfg.upstream.workers = 2;
  cfg.upstream.local_batch = 8;
  cfg.upstream.strategy = shuffle::Strategy::kGlobal;
  cfg.upstream.seed = 4;
  cfg.upstream.max_eval_samples = 0;
  cfg.downstream = cfg.upstream;
  cfg.upstream_regime = data::TrainRegime{.epochs = 8,
                                          .base_lr = 0.05F,
                                          .reference_batch = 16,
                                          .milestones = {},
                                          .warmup_epochs = 0.0};
  cfg.downstream_regime = cfg.upstream_regime;
  cfg.downstream_regime.epochs = 2;  // short fine-tune

  const auto r = run_transfer_experiment(tax, cfg);
  EXPECT_GT(r.upstream.best_top1, 0.3);

  // Baseline: downstream from scratch for the same 2 epochs.
  Rng mrng = Rng(cfg.downstream.seed).fork(0x93);
  nn::MlpSpec down_spec = cfg.trunk;
  down_spec.num_classes = tax.coarse_classes;
  nn::Model cold = nn::make_mlp(down_spec, mrng);
  const auto cold_r =
      train_model(cold, tax.downstream.train, tax.downstream.val,
                  cfg.downstream_regime, cfg.downstream, "cold");
  EXPECT_GT(r.downstream.best_top1, cold_r.best_top1 - 0.02);
}

}  // namespace
}  // namespace dshuf::sim
