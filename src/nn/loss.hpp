// Softmax cross-entropy loss with integrated, numerically stable backward.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.hpp"

namespace dshuf::nn {

/// Combined softmax + cross-entropy with mean reduction. The batch may be
/// a stack of equal row segments (nn/layer.hpp): each segment's loss is
/// its own mean, and the gradient of each row is scaled by 1/segment
/// length, so a stacked pass gives the bits of one pass per segment.
class SoftmaxCrossEntropy {
 public:
  /// logits: [N, C]; labels: N class indices < C; segment_rows divides N
  /// (0 = one segment). Returns the mean loss over all N rows.
  float forward(const Tensor& logits, const std::vector<std::uint32_t>& labels,
                std::size_t segment_rows = 0);

  /// Gradient of the loss w.r.t. the logits passed to the last forward:
  /// each segment's mean, i.e. already divided by the segment length.
  /// Computed into a member tensor whose capacity is reused; the
  /// reference stays valid until the next grad() call.
  [[nodiscard]] const Tensor& grad();

  /// Mean loss of each segment of the last forward, in segment order.
  [[nodiscard]] const std::vector<float>& segment_losses() const {
    return segment_losses_;
  }

  /// Softmax probabilities from the last forward ([N, C]).
  [[nodiscard]] const Tensor& probs() const { return probs_; }

  /// Per-sample losses from the last forward (length N). Used by
  /// importance-sampling policies that score individual samples.
  [[nodiscard]] const std::vector<float>& per_sample_losses() const {
    return sample_losses_;
  }

 private:
  Tensor probs_;
  Tensor grad_;
  std::vector<std::uint32_t> labels_;
  std::vector<float> sample_losses_;
  std::vector<float> segment_losses_;
  std::size_t segment_rows_ = 0;
};

}  // namespace dshuf::nn
