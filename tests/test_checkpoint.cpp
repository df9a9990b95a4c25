#include "nn/checkpoint.hpp"

#include <filesystem>
#include <fstream>

#include <gtest/gtest.h>

#include "data/synthetic.hpp"
#include "nn/builder.hpp"
#include "nn/loss.hpp"
#include "nn/optimizer.hpp"

namespace dshuf::nn {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (fs::temp_directory_path() /
             ("dshuf_ckpt_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name()))
                .string();
  }
  void TearDown() override { fs::remove(path_); }

  static Model make_model(std::uint64_t seed) {
    Rng rng(seed);
    MlpSpec spec{.input_dim = 6,
                 .hidden = {12},
                 .num_classes = 4,
                 .norm = NormKind::kBatchNorm};
    return make_mlp(spec, rng);
  }

  /// One deterministic training step on synthetic data.
  static void train_step(Model& model, Sgd& opt,
                         const data::InMemoryDataset& ds, std::size_t step) {
    SoftmaxCrossEntropy ce;
    std::vector<data::SampleId> batch(8);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i] = static_cast<data::SampleId>((step * 8 + i) % ds.size());
    }
    const Tensor x = ds.gather(batch);
    const auto y = ds.gather_labels(batch);
    model.zero_grad();
    const Tensor logits = model.forward(x, true);
    ce.forward(logits, y);
    model.backward(ce.grad());
    opt.step();
  }

  static data::InMemoryDataset make_data() {
    return data::make_class_clusters({.num_classes = 4,
                                      .samples_per_class = 16,
                                      .feature_dim = 6,
                                      .seed = 3});
  }

  std::string path_;
};

TEST_F(CheckpointTest, RoundTripsThroughDisk) {
  Model model = make_model(1);
  Sgd opt(model, SgdConfig{.lr = 0.1F, .momentum = 0.9F});
  const auto ds = make_data();
  for (std::size_t s = 0; s < 5; ++s) train_step(model, opt, ds, s);

  const Checkpoint before = make_checkpoint(model, opt, 5);
  save_checkpoint(path_, before);
  const Checkpoint after = load_checkpoint(path_);
  EXPECT_EQ(after.epoch, 5U);
  EXPECT_EQ(after.model_state, before.model_state);
  EXPECT_EQ(after.buffer_state, before.buffer_state);
  EXPECT_EQ(after.optimizer_state, before.optimizer_state);
}

// The property that makes checkpoints trustworthy: restore + continue is
// bit-identical to never stopping.
TEST_F(CheckpointTest, ResumeEqualsUninterruptedTraining) {
  const auto ds = make_data();

  // Reference: 10 uninterrupted steps.
  Model ref = make_model(1);
  Sgd ref_opt(ref, SgdConfig{.lr = 0.1F, .momentum = 0.9F});
  for (std::size_t s = 0; s < 10; ++s) train_step(ref, ref_opt, ds, s);

  // Interrupted: 5 steps, checkpoint to disk, restore into FRESH objects,
  // 5 more steps.
  Model a = make_model(1);
  Sgd a_opt(a, SgdConfig{.lr = 0.1F, .momentum = 0.9F});
  for (std::size_t s = 0; s < 5; ++s) train_step(a, a_opt, ds, s);
  save_checkpoint(path_, make_checkpoint(a, a_opt, 5));

  Model b = make_model(999);  // different init — must be overwritten
  Sgd b_opt(b, SgdConfig{.lr = 0.1F, .momentum = 0.9F});
  const Checkpoint ckpt = load_checkpoint(path_);
  restore_checkpoint(ckpt, b, b_opt);
  for (std::size_t s = ckpt.epoch; s < 10; ++s) train_step(b, b_opt, ds, s);

  EXPECT_EQ(ref.state(), b.state());
  EXPECT_EQ(ref.buffer_state(), b.buffer_state());
}

TEST_F(CheckpointTest, BuffersIncludeBatchNormRunningStats) {
  Model model = make_model(1);
  const auto buffers = model.buffers();
  ASSERT_EQ(buffers.size(), 2U);  // running mean + var of the one BN layer
  // Train a little; running stats must change and be captured.
  Sgd opt(model, SgdConfig{.lr = 0.1F});
  const auto ds = make_data();
  const auto before = model.buffer_state();
  train_step(model, opt, ds, 0);
  EXPECT_NE(model.buffer_state(), before);
}

TEST_F(CheckpointTest, RejectsGarbageFiles) {
  {
    std::ofstream f(path_, std::ios::binary);
    f << "this is not a checkpoint";
  }
  EXPECT_THROW(load_checkpoint(path_), CheckError);
  EXPECT_THROW(load_checkpoint("/nonexistent/dir/x.ckpt"), CheckError);
}

TEST_F(CheckpointTest, RejectsTruncatedFiles) {
  Model model = make_model(1);
  Sgd opt(model, SgdConfig{});
  save_checkpoint(path_, make_checkpoint(model, opt, 1));
  const auto size = fs::file_size(path_);
  fs::resize_file(path_, size / 2);
  EXPECT_THROW(load_checkpoint(path_), CheckError);
}

TEST_F(CheckpointTest, RestoreRejectsArchitectureMismatch) {
  Model model = make_model(1);
  Sgd opt(model, SgdConfig{});
  const Checkpoint ckpt = make_checkpoint(model, opt, 0);

  Rng rng(2);
  MlpSpec other{.input_dim = 6, .hidden = {24}, .num_classes = 4};
  Model wrong = make_mlp(other, rng);
  Sgd wrong_opt(wrong, SgdConfig{});
  EXPECT_THROW(restore_checkpoint(ckpt, wrong, wrong_opt), CheckError);
}

}  // namespace
}  // namespace dshuf::nn
