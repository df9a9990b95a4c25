#include "nn/layers.hpp"

#include <cmath>

namespace dshuf::nn {

Linear::Linear(std::size_t in_features, std::size_t out_features, Rng& rng)
    : in_(in_features),
      out_(out_features),
      weight_("linear.weight",
              Tensor::randn({in_features, out_features}, rng,
                            std::sqrt(2.0F / static_cast<float>(in_features))),
              /*decay=*/true),
      bias_("linear.bias", Tensor({out_features}), /*decay=*/false) {}

void Linear::forward_into(const Tensor& x, Tensor& y, bool /*training*/) {
  DSHUF_CHECK_EQ(x.cols(), in_, "Linear input feature mismatch");
  cached_in_ = &x;
  y.resize2(x.rows(), out_);
  gemm(x, weight_.value, y);
  const float* b = bias_.value.data();
  for (std::size_t i = 0; i < y.rows(); ++i) {
    float* row = y.data() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) row[j] += b[j];
  }
}

void Linear::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  DSHUF_CHECK(cached_in_ != nullptr, "Linear backward before forward");
  DSHUF_CHECK_EQ(grad_out.cols(), out_, "Linear grad feature mismatch");
  DSHUF_CHECK_EQ(grad_out.rows(), cached_in_->rows(),
                 "Linear grad batch mismatch");
  // dW += X^T dY, one sum per segment; db += column-sum(dY) in row order,
  // which already adds segment after segment; dX = dY W^T (row-local).
  gemm_at_b(*cached_in_, grad_out, weight_.grad, /*accumulate=*/true,
            segment_len(grad_out.rows()));
  float* db = bias_.grad.data();
  for (std::size_t i = 0; i < grad_out.rows(); ++i) {
    const float* row = grad_out.data() + i * out_;
    for (std::size_t j = 0; j < out_; ++j) db[j] += row[j];
  }
  grad_in.resize2(grad_out.rows(), in_);
  // weight is [in, out] = NxK as gemm_a_bt expects (N=in, K=out), so
  // dX(MxIn) = dY(MxOut) * W^T comes out directly.
  gemm_a_bt(grad_out, weight_.value, grad_in);
}

void ReLU::forward_into(const Tensor& x, Tensor& y, bool /*training*/) {
  cached_in_ = &x;
  y.resize_like(x);
  const float* px = x.data();
  float* py = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float v = px[i];
    py[i] = v > 0.0F ? v : 0.0F;
  }
}

void ReLU::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  DSHUF_CHECK(cached_in_ != nullptr, "ReLU backward before forward");
  DSHUF_CHECK_EQ(grad_out.size(), cached_in_->size(),
                 "ReLU grad size mismatch");
  grad_in.resize_like(grad_out);
  const float* x = cached_in_->data();
  const float* go = grad_out.data();
  float* g = grad_in.data();
  // Load unconditionally, then select: the loop becomes a vector blend
  // rather than a branch. (A multiply by a 0/1 mask would not keep the
  // bits: -3 * 0 is -0, and NaN * 0 is NaN.)
  for (std::size_t i = 0; i < grad_in.size(); ++i) {
    const float v = go[i];
    g[i] = x[i] > 0.0F ? v : 0.0F;
  }
}

void Tanh::forward_into(const Tensor& x, Tensor& y, bool /*training*/) {
  y.resize_like(x);
  const float* px = x.data();
  float* py = y.data();
  for (std::size_t i = 0; i < x.size(); ++i) py[i] = std::tanh(px[i]);
  // Backward needs tanh(x), and y's storage belongs to the caller — keep
  // our own copy in scratch.
  copy_into(y, scratch(0));
}

void Tanh::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  const Tensor& cached_out = scratch(0);
  DSHUF_CHECK_EQ(grad_out.size(), cached_out.size(),
                 "Tanh grad size mismatch");
  grad_in.resize_like(grad_out);
  const float* y = cached_out.data();
  const float* go = grad_out.data();
  float* g = grad_in.data();
  for (std::size_t i = 0; i < grad_in.size(); ++i) {
    g[i] = go[i] * (1.0F - y[i] * y[i]);
  }
}

Dropout::Dropout(double p, Rng& rng) : p_(p), rng_(&rng) {
  DSHUF_CHECK(p >= 0.0 && p < 1.0, "dropout probability must be in [0, 1)");
}

void Dropout::forward_into(const Tensor& x, Tensor& y, bool training) {
  last_training_ = training;
  if (!training || p_ == 0.0) {
    copy_into(x, y);
    return;
  }
  y.resize_like(x);
  mask_.assign(x.size(), 0.0F);
  const auto keep = static_cast<float>(1.0 / (1.0 - p_));
  const float* px = x.data();
  float* o = y.data();
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (rng_->uniform() >= p_) {
      mask_[i] = keep;
      o[i] = px[i] * keep;
    } else {
      o[i] = 0.0F;
    }
  }
}

void Dropout::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  if (!last_training_ || p_ == 0.0) {
    copy_into(grad_out, grad_in);
    return;
  }
  DSHUF_CHECK_EQ(grad_out.size(), mask_.size(), "Dropout grad size mismatch");
  grad_in.resize_like(grad_out);
  const float* go = grad_out.data();
  float* g = grad_in.data();
  for (std::size_t i = 0; i < grad_in.size(); ++i) g[i] = go[i] * mask_[i];
}

}  // namespace dshuf::nn
