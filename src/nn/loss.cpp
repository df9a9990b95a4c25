#include "nn/loss.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace dshuf::nn {

float SoftmaxCrossEntropy::forward(const Tensor& logits,
                                   const std::vector<std::uint32_t>& labels,
                                   std::size_t segment_rows) {
  DSHUF_CHECK_EQ(logits.rows(), labels.size(),
                 "labels must match logits batch size");
  const std::size_t N = logits.rows();
  const std::size_t C = logits.cols();
  const std::size_t S = segment_rows == 0 ? N : segment_rows;
  DSHUF_CHECK(S == 0 || N % S == 0,
              N << " rows do not split into " << S << "-row segments");
  segment_rows_ = S;
  probs_.resize2(N, C);
  labels_.assign(labels.begin(), labels.end());
  sample_losses_.assign(N, 0.0F);
  segment_losses_.clear();
  double total = 0.0;
  double segment_total = 0.0;
  for (std::size_t i = 0; i < N; ++i) {
    DSHUF_CHECK_LT(labels[i], C, "label out of class range");
    const float* row = logits.data() + i * C;
    float* prow = probs_.data() + i * C;
    const float mx = *std::max_element(row, row + C);
    double denom = 0.0;
    for (std::size_t j = 0; j < C; ++j) {
      const double e = std::exp(static_cast<double>(row[j] - mx));
      prow[j] = static_cast<float>(e);
      denom += e;
    }
    const auto inv = static_cast<float>(1.0 / denom);
    for (std::size_t j = 0; j < C; ++j) prow[j] *= inv;
    // -log softmax of the true class, computed from the stabilised terms.
    const double logp =
        static_cast<double>(row[labels[i]] - mx) - std::log(denom);
    sample_losses_[i] = static_cast<float>(-logp);
    total -= logp;
    segment_total -= logp;
    if ((i + 1) % S == 0) {
      segment_losses_.push_back(
          static_cast<float>(segment_total / static_cast<double>(S)));
      segment_total = 0.0;
    }
  }
  return static_cast<float>(total / static_cast<double>(N));
}

const Tensor& SoftmaxCrossEntropy::grad() {
  DSHUF_CHECK(!probs_.empty(), "grad() before forward()");
  copy_into(probs_, grad_);
  const std::size_t N = grad_.rows();
  const std::size_t C = grad_.cols();
  const auto inv_n = 1.0F / static_cast<float>(segment_rows_);
  for (std::size_t i = 0; i < N; ++i) {
    float* row = grad_.data() + i * C;
    row[labels_[i]] -= 1.0F;
    for (std::size_t j = 0; j < C; ++j) row[j] *= inv_n;
  }
  return grad_;
}

}  // namespace dshuf::nn
