#include <cmath>

#include <gtest/gtest.h>

#include "nn/builder.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/metrics.hpp"
#include "nn/model.hpp"

namespace dshuf::nn {
namespace {

TEST(SoftmaxCrossEntropy, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy ce;
  Tensor logits({2, 4});  // all zeros => uniform softmax
  const float loss = ce.forward(logits, {0, 3});
  EXPECT_NEAR(loss, std::log(4.0F), 1e-5F);
}

TEST(SoftmaxCrossEntropy, ConfidentCorrectPredictionLowLoss) {
  SoftmaxCrossEntropy ce;
  Tensor logits({1, 3}, {10.0F, 0.0F, 0.0F});
  EXPECT_LT(ce.forward(logits, {0}), 1e-3F);
  EXPECT_GT(ce.forward(logits, {1}), 5.0F);
}

TEST(SoftmaxCrossEntropy, ProbsSumToOne) {
  SoftmaxCrossEntropy ce;
  Tensor logits({2, 5}, {1, 2, 3, 4, 5, -1, 0, 1, 0, -1});
  ce.forward(logits, {0, 1});
  for (std::size_t i = 0; i < 2; ++i) {
    double sum = 0;
    for (std::size_t j = 0; j < 5; ++j) sum += ce.probs().at(i, j);
    EXPECT_NEAR(sum, 1.0, 1e-5);
  }
}

TEST(SoftmaxCrossEntropy, GradientIsProbsMinusOneHotOverN) {
  SoftmaxCrossEntropy ce;
  Tensor logits({2, 3}, {1, 2, 3, 0, 0, 0});
  ce.forward(logits, {2, 0});
  const Tensor g = ce.grad();
  // Row sums of the gradient are zero (softmax property).
  for (std::size_t i = 0; i < 2; ++i) {
    double s = 0;
    for (std::size_t j = 0; j < 3; ++j) s += g.at(i, j);
    EXPECT_NEAR(s, 0.0, 1e-6);
  }
  // grad = (p - onehot) / N.
  EXPECT_NEAR(g.at(0, 2), (ce.probs().at(0, 2) - 1.0F) / 2.0F, 1e-6F);
  EXPECT_NEAR(g.at(1, 0), (ce.probs().at(1, 0) - 1.0F) / 2.0F, 1e-6F);
}

TEST(SoftmaxCrossEntropy, NumericallyStableForHugeLogits) {
  SoftmaxCrossEntropy ce;
  Tensor logits({1, 2}, {10000.0F, 9990.0F});
  const float loss = ce.forward(logits, {0});
  EXPECT_TRUE(std::isfinite(loss));
  EXPECT_LT(loss, 1e-3F);
}

TEST(SoftmaxCrossEntropy, GradientMatchesFiniteDifferences) {
  Rng rng(1);
  SoftmaxCrossEntropy ce;
  Tensor logits = Tensor::randn({3, 4}, rng);
  const std::vector<std::uint32_t> labels{1, 3, 0};
  ce.forward(logits, labels);
  const Tensor g = ce.grad();
  const float eps = 1e-2F;
  for (std::size_t i = 0; i < logits.size(); ++i) {
    const float orig = logits.at(i);
    logits.vec()[i] = orig + eps;
    const float lp = ce.forward(logits, labels);
    logits.vec()[i] = orig - eps;
    const float lm = ce.forward(logits, labels);
    logits.vec()[i] = orig;
    EXPECT_NEAR(g.at(i), (lp - lm) / (2 * eps), 2e-3F);
  }
}

TEST(SoftmaxCrossEntropy, RejectsBadLabels) {
  SoftmaxCrossEntropy ce;
  Tensor logits({1, 3});
  EXPECT_THROW(ce.forward(logits, {3}), CheckError);
  EXPECT_THROW(ce.forward(logits, {0, 1}), CheckError);
}

TEST(Model, StateRoundTrips) {
  Rng rng(2);
  MlpSpec spec{.input_dim = 4, .hidden = {8}, .num_classes = 3};
  Model m = make_mlp(spec, rng);
  const auto s = m.state();
  EXPECT_EQ(s.size(), m.num_params());
  Rng rng2(99);
  Model m2 = make_mlp(spec, rng2);
  m2.load_state(s);
  EXPECT_EQ(m2.state(), s);
}

TEST(Model, LoadStateRejectsWrongSize) {
  Rng rng(3);
  MlpSpec spec{.input_dim = 4, .hidden = {8}, .num_classes = 3};
  Model m = make_mlp(spec, rng);
  std::vector<float> tooshort(m.num_params() - 1, 0.0F);
  EXPECT_THROW(m.load_state(tooshort), CheckError);
}

TEST(Model, ZeroGradAndScaleGrad) {
  Rng rng(4);
  Model m;
  m.add(std::make_unique<Linear>(2, 2, rng));
  Tensor x = Tensor::randn({3, 2}, rng);
  Tensor g({3, 2});
  g.fill(1.0F);
  m.forward(x, true);
  m.backward(g);
  const auto g1 = m.gradients();
  m.scale_grad(0.5F);
  const auto g2 = m.gradients();
  for (std::size_t i = 0; i < g1.size(); ++i) {
    EXPECT_FLOAT_EQ(g2[i], 0.5F * g1[i]);
  }
  m.zero_grad();
  for (float v : m.gradients()) EXPECT_FLOAT_EQ(v, 0.0F);
}

TEST(Model, PopLayersRemovesHead) {
  Rng rng(5);
  MlpSpec spec{.input_dim = 4, .hidden = {8}, .num_classes = 3};
  Model m = make_mlp(spec, rng);
  const auto before = m.layers().size();
  m.pop_layers(1);
  EXPECT_EQ(m.layers().size(), before - 1);
  // Output is now the 8-wide trunk activation.
  Tensor x = Tensor::randn({2, 4}, rng);
  EXPECT_EQ(m.forward(x, false).cols(), 8U);
}

TEST(Builder, MlpShapesAndNormSelection) {
  Rng rng(6);
  for (auto norm : {NormKind::kNone, NormKind::kBatchNorm,
                    NormKind::kGroupNorm}) {
    MlpSpec spec{.input_dim = 6,
                 .hidden = {12, 10},
                 .num_classes = 4,
                 .norm = norm,
                 .groups = 2};
    Model m = make_mlp(spec, rng);
    Tensor x = Tensor::randn({5, 6}, rng);
    const Tensor y = m.forward(x, true);
    EXPECT_EQ(y.rows(), 5U);
    EXPECT_EQ(y.cols(), 4U);
  }
}

TEST(Builder, RejectsDegenerateSpecs) {
  Rng rng(7);
  MlpSpec spec{.input_dim = 0, .hidden = {4}, .num_classes = 3};
  EXPECT_THROW(make_mlp(spec, rng), CheckError);
  spec = MlpSpec{.input_dim = 4, .hidden = {4}, .num_classes = 1};
  EXPECT_THROW(make_mlp(spec, rng), CheckError);
}

TEST(Metrics, Top1Accuracy) {
  Tensor logits({3, 2}, {0.9F, 0.1F, 0.2F, 0.8F, 0.6F, 0.4F});
  EXPECT_DOUBLE_EQ(top1_accuracy(logits, {0, 1, 1}), 2.0 / 3.0);
}

TEST(Metrics, AccuracyMeterAccumulates) {
  AccuracyMeter meter;
  Tensor l1({1, 2}, {1.0F, 0.0F});
  Tensor l2({1, 2}, {0.0F, 1.0F});
  meter.update(l1, {0});
  meter.update(l2, {0});
  EXPECT_DOUBLE_EQ(meter.value(), 0.5);
  EXPECT_EQ(meter.count(), 2U);
  meter.reset();
  EXPECT_DOUBLE_EQ(meter.value(), 0.0);
}

}  // namespace
}  // namespace dshuf::nn
