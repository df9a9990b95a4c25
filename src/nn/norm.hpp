// Normalisation layers.
//
// BatchNorm1d is the load-bearing layer for this reproduction: the paper
// (Section IV-A-1) attributes local shuffling's accuracy gap largely to
// batch statistics being computed on each worker's (possibly class-skewed,
// small) local minibatch. The simulator stacks its virtual workers'
// minibatches into one pass, one row segment per worker (layer.hpp), and
// BatchNorm takes its batch statistics, running-stat updates and
// gradient sums per segment, in worker order — per-worker statistics,
// exactly like unsynchronised BN in DDP, and the same bits as one pass
// per worker. GroupNorm is provided as the paper's suggested
// batch-independent alternative for the ablation study.
//
// Both walk rows in the outer loop and columns in the inner one, so the
// per-column work vectorises while each column keeps its ascending-row
// double accumulator chain.
#pragma once

#include "nn/layer.hpp"

namespace dshuf::nn {

/// 1-D batch normalisation over the batch dimension of an [N, C] input
/// (per segment; training needs at least two rows per segment).
class BatchNorm1d : public Layer {
 public:
  explicit BatchNorm1d(std::size_t features, float momentum = 0.1F,
                       float eps = 1e-5F);

  void forward_into(const Tensor& x, Tensor& y, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  std::vector<Tensor*> buffers() override {
    return {&running_mean_, &running_var_};
  }
  [[nodiscard]] std::string name() const override { return "BatchNorm1d"; }

  /// Running statistics (used at eval); exposed for tests and for the
  /// simulator's cross-worker running-stat averaging.
  Tensor& running_mean() { return running_mean_; }
  Tensor& running_var() { return running_var_; }

 private:
  // Scratch slots for the forward caches backward reads.
  static constexpr int kXhatSlot = 0;     // [N, C]
  static constexpr int kInvStdSlot = 1;   // [segments, C]

  std::size_t features_;
  float momentum_;
  float eps_;
  Param gamma_;
  Param beta_;
  Tensor running_mean_;
  Tensor running_var_;
  std::size_t cached_batch_ = 0;
  // Per-column accumulators and factors, sized C once, so steady-state
  // passes allocate nothing.
  std::vector<double> sum_;
  std::vector<double> sum2_;
  std::vector<float> col_;
  std::vector<float> col2_;
};

/// Group normalisation over an [N, C] input with G groups of C/G channels.
/// Statistics are per-sample, per-group — independent of batch composition,
/// hence insensitive to how samples are sharded across workers.
class GroupNorm : public Layer {
 public:
  GroupNorm(std::size_t features, std::size_t groups, float eps = 1e-5F);

  void forward_into(const Tensor& x, Tensor& y, bool training) override;
  void backward_into(const Tensor& grad_out, Tensor& grad_in) override;
  std::vector<Param*> params() override { return {&gamma_, &beta_}; }
  [[nodiscard]] std::string name() const override { return "GroupNorm"; }

 private:
  static constexpr int kXhatSlot = 0;     // [N, C]
  static constexpr int kInvStdSlot = 1;   // [N, G]

  std::size_t features_;
  std::size_t groups_;
  std::size_t group_size_;
  float eps_;
  Param gamma_;
  Param beta_;
};

}  // namespace dshuf::nn
