#include "nn/conv.hpp"

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "gemm_count.hpp"
#include "gradcheck.hpp"
#include "nn/builder.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/optimizer.hpp"

namespace dshuf::nn {
namespace {

TEST(Conv1d, IdentityKernelPassesSignalThrough) {
  Rng rng(1);
  Conv1d conv(1, 1, 6, 3, rng);
  // Kernel [0, 1, 0] with zero bias is the identity under same-padding.
  conv.params()[0]->value = Tensor({1, 1, 3}, {0.0F, 1.0F, 0.0F});
  conv.params()[1]->value = Tensor({1}, {0.0F});
  const Tensor x({1, 6}, {1, 2, 3, 4, 5, 6});
  const Tensor y = conv.forward(x, true);
  for (std::size_t i = 0; i < 6; ++i) EXPECT_FLOAT_EQ(y.at(i), x.at(i));
}

TEST(Conv1d, ShiftKernelWithZeroPadding) {
  Rng rng(1);
  Conv1d conv(1, 1, 4, 3, rng);
  // Kernel [1, 0, 0] reads x[t-1]: shifts the signal right, zero first.
  conv.params()[0]->value = Tensor({1, 1, 3}, {1.0F, 0.0F, 0.0F});
  conv.params()[1]->value = Tensor({1}, {0.0F});
  const Tensor x({1, 4}, {10, 20, 30, 40});
  const Tensor y = conv.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0), 0.0F);   // padding
  EXPECT_FLOAT_EQ(y.at(1), 10.0F);
  EXPECT_FLOAT_EQ(y.at(3), 30.0F);
}

TEST(Conv1d, BiasIsAddedPerOutputChannel) {
  Rng rng(1);
  Conv1d conv(1, 2, 3, 1, rng);
  conv.params()[0]->value = Tensor({2, 1, 1}, {0.0F, 0.0F});
  conv.params()[1]->value = Tensor({2}, {1.5F, -2.0F});
  const Tensor x({1, 3});
  const Tensor y = conv.forward(x, true);
  for (std::size_t t = 0; t < 3; ++t) {
    EXPECT_FLOAT_EQ(y.at(0, t), 1.5F);
    EXPECT_FLOAT_EQ(y.at(0, 3 + t), -2.0F);
  }
}

TEST(Conv1d, GradientsMatchFiniteDifferences) {
  Rng rng(2);
  Conv1d conv(2, 3, 5, 3, rng);
  Tensor x = Tensor::randn({2, 2 * 5}, rng);
  testing::check_gradients(conv, x, 2 * 3 * 5, rng);
}

TEST(Conv1d, RejectsBadConfigurations) {
  Rng rng(1);
  EXPECT_THROW(Conv1d(1, 1, 4, 2, rng), CheckError);  // even kernel
  EXPECT_THROW(Conv1d(1, 1, 2, 3, rng), CheckError);  // kernel > length
  Conv1d ok(1, 1, 4, 3, rng);
  Tensor wrong({1, 5});
  EXPECT_THROW(ok.forward(wrong, true), CheckError);
}

TEST(MaxPool1d, SelectsWindowMaxima) {
  MaxPool1d pool(1, 6, 2);
  const Tensor x({1, 6}, {1, 5, 2, 2, 9, 3});
  const Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.cols(), 3U);
  EXPECT_FLOAT_EQ(y.at(0), 5.0F);
  EXPECT_FLOAT_EQ(y.at(1), 2.0F);
  EXPECT_FLOAT_EQ(y.at(2), 9.0F);
}

TEST(MaxPool1d, BackwardRoutesGradientToArgmax) {
  MaxPool1d pool(1, 4, 2);
  const Tensor x({1, 4}, {1, 5, 9, 2});
  pool.forward(x, true);
  const Tensor g({1, 2}, {10.0F, 20.0F});
  const Tensor gi = pool.backward(g);
  EXPECT_FLOAT_EQ(gi.at(0), 0.0F);
  EXPECT_FLOAT_EQ(gi.at(1), 10.0F);
  EXPECT_FLOAT_EQ(gi.at(2), 20.0F);
  EXPECT_FLOAT_EQ(gi.at(3), 0.0F);
}

TEST(MaxPool1d, MultiChannelLayout) {
  MaxPool1d pool(2, 4, 2);
  // Channel 0: [1 2 3 4]; channel 1: [8 7 6 5].
  const Tensor x({1, 8}, {1, 2, 3, 4, 8, 7, 6, 5});
  const Tensor y = pool.forward(x, true);
  EXPECT_FLOAT_EQ(y.at(0), 2.0F);
  EXPECT_FLOAT_EQ(y.at(1), 4.0F);
  EXPECT_FLOAT_EQ(y.at(2), 8.0F);
  EXPECT_FLOAT_EQ(y.at(3), 6.0F);
}

TEST(MaxPool1d, RejectsNonDividingWindow) {
  EXPECT_THROW(MaxPool1d(1, 5, 2), CheckError);
}

TEST(MakeCnn, ShapesComposeAcrossBlocks) {
  Rng rng(3);
  CnnSpec spec{.input_length = 16,
               .channels = {4, 8},
               .kernel = 3,
               .pool = 2,
               .num_classes = 5,
               .norm = NormKind::kBatchNorm};
  Model m = make_cnn(spec, rng);
  Tensor x = Tensor::randn({6, 16}, rng);
  const Tensor y = m.forward(x, true);
  EXPECT_EQ(y.rows(), 6U);
  EXPECT_EQ(y.cols(), 5U);
  // Backward runs end to end.
  m.zero_grad();
  Tensor g(y.shape());
  g.fill(0.1F);
  m.backward(g);
  EXPECT_GT(m.gradients().size(), 0U);
}

TEST(MakeCnn, LearnsTheSyntheticTask) {
  const auto split = data::make_class_clusters_split(
      {.num_classes = 4,
       .samples_per_class = 48,
       .feature_dim = 16,
       .cluster_separation = 3.0,
       .seed = 9});
  Rng rng(5);
  CnnSpec spec{.input_length = 16,
               .channels = {8},
               .kernel = 3,
               .pool = 2,
               .num_classes = 4,
               .norm = NormKind::kBatchNorm};
  Model m = make_cnn(spec, rng);
  Sgd opt(m, SgdConfig{.lr = 0.05F, .momentum = 0.9F});
  SoftmaxCrossEntropy ce;
  std::vector<data::SampleId> order(split.train.size());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = static_cast<data::SampleId>(i);
  }
  Rng shuffle_rng(7);
  for (int epoch = 0; epoch < 12; ++epoch) {
    shuffle_rng.shuffle(order);
    for (std::size_t off = 0; off + 16 <= order.size(); off += 16) {
      const std::span<const data::SampleId> ids(order.data() + off, 16);
      const Tensor x = split.train.gather(ids);
      const auto y = split.train.gather_labels(ids);
      m.zero_grad();
      const Tensor logits = m.forward(x, true);
      ce.forward(logits, y);
      m.backward(ce.grad());
      opt.step();
    }
  }
  std::vector<data::SampleId> val_ids(split.val.size());
  for (std::size_t i = 0; i < val_ids.size(); ++i) {
    val_ids[i] = static_cast<data::SampleId>(i);
  }
  const Tensor logits =
      m.forward(split.val.gather(val_ids), /*training=*/false);
  EXPECT_GT(top1_accuracy(logits, split.val.gather_labels(val_ids)), 0.5);
}

TEST(MakeCnn, RejectsNonDividingPool) {
  Rng rng(1);
  CnnSpec spec{.input_length = 10,
               .channels = {4},
               .kernel = 3,
               .pool = 3,
               .num_classes = 3};
  EXPECT_THROW(make_cnn(spec, rng), CheckError);
}

/// tensor.gemm.calls / tensor.gemm.flops added by one training step.
GemmCount count_train_step(Model& model, std::size_t rows,
                           std::size_t features, std::size_t classes) {
  Rng rng(29);
  const Tensor x = Tensor::randn({rows, features}, rng);
  std::vector<std::uint32_t> y(rows);
  for (std::size_t i = 0; i < rows; ++i) {
    y[i] = static_cast<std::uint32_t>(i % classes);
  }
  const GemmCount before = gemm_count();
  SoftmaxCrossEntropy ce;
  model.zero_grad();
  (void)ce.forward(model.forward(x, /*training=*/true), y);
  model.backward(ce.grad());
  return gemm_count() - before;
}

TEST(GemmCounting, CnnTrainStepCountsEveryConvAndLinearGemm) {
  // Conv1d lowers to three GEMMs per step (forward, dW, dX), each over
  // m*n*k = out_c * (rows * L) * (in_c * kernel); the classifier Linear
  // to three over rows * in * out.
  const CnnSpec spec;
  Rng rng(31);
  Model model = make_cnn(spec, rng);
  const std::size_t rows = 12;
  std::uint64_t want = 0;
  std::size_t in_c = 1;
  std::size_t length = spec.input_length;
  for (std::size_t out_c : spec.channels) {
    want += 3 * 2 * out_c * (rows * length) * (in_c * spec.kernel);
    in_c = out_c;
    length /= spec.pool;
  }
  want += 3 * 2 * rows * (in_c * length) * spec.num_classes;
  const GemmCount got =
      count_train_step(model, rows, spec.input_length, spec.num_classes);
  EXPECT_EQ(got.calls, 3 * (spec.channels.size() + 1));
  EXPECT_EQ(got.flops, want);
}

TEST(GemmCounting, MlpTrainStepCountsThreeGemmsPerLinear) {
  const MlpSpec spec{.input_dim = 32, .hidden = {96, 64}, .num_classes = 64};
  Rng rng(37);
  Model model = make_mlp(spec, rng);
  const std::size_t rows = 24;
  const std::uint64_t want =
      3 * 2 * rows * (32 * 96 + 96 * 64 + 64 * 64);
  const GemmCount got =
      count_train_step(model, rows, spec.input_dim, spec.num_classes);
  EXPECT_EQ(got.calls, 9U);
  EXPECT_EQ(got.flops, want);
}

}  // namespace
}  // namespace dshuf::nn
