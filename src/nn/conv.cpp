#include "nn/conv.hpp"

#include <cmath>

#include "nn/layers.hpp"
#include "nn/norm.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernel_ref.hpp"

namespace dshuf::nn {

Conv1d::Conv1d(std::size_t in_channels, std::size_t out_channels,
               std::size_t length, std::size_t kernel, Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      length_(length),
      kernel_(kernel),
      weight_("conv.weight",
              Tensor::randn({out_channels, in_channels, kernel}, rng,
                            std::sqrt(2.0F / static_cast<float>(
                                                 in_channels * kernel))),
              /*decay=*/true),
      bias_("conv.bias", Tensor({out_channels}), /*decay=*/false) {
  DSHUF_CHECK_GT(in_channels, 0U, "need at least one input channel");
  DSHUF_CHECK_GT(out_channels, 0U, "need at least one output channel");
  DSHUF_CHECK_GT(length, 0U, "need positive length");
  DSHUF_CHECK_EQ(kernel % 2, 1U, "same-padding needs an odd kernel");
  DSHUF_CHECK_LE(kernel, length, "kernel cannot exceed the signal length");
}

void Conv1d::forward_into(const Tensor& x, Tensor& y, bool /*training*/) {
  DSHUF_CHECK_EQ(x.cols(), in_channels_ * length_,
                 "Conv1d input feature mismatch");
  const std::size_t N = x.rows();
  cached_in_ = &x;
  cached_batch_ = N;
  y.resize2(N, out_channels_ * length_);

  if (kernel_backend() == KernelBackend::kReference) {
    kernel_ref::conv1d_forward_ref(x.data(), weight_.value.data(),
                                   bias_.value.data(), y.data(), N,
                                   in_channels_, out_channels_, length_,
                                   kernel_);
    return;
  }

  // Lower to a column matrix, then the whole convolution is one GEMM:
  //   out_big[oc, n*L + t] = W[oc, ic*k] * cols[ic*k, n*L + t].
  const std::size_t nl = N * length_;
  const std::size_t ck = in_channels_ * kernel_;
  Tensor& cols = scratch(kColsSlot);
  kernel::im2col_1d(x.data(), N, in_channels_, length_, kernel_, cols);
  Tensor& out_big = scratch(kOutBigSlot);
  out_big.resize2(out_channels_, nl);
  gemm_raw(weight_.value.data(), cols.data(), out_big.data(), out_channels_,
           nl, ck, /*a_transposed=*/false, /*b_transposed=*/false,
           /*accumulate=*/false);

  // Scatter back to the layer's [N, out_c * L] layout with the bias fused.
  const float* b = bias_.value.data();
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    const float* src = out_big.data() + oc * nl;
    const float bv = b[oc];
    for (std::size_t n = 0; n < N; ++n) {
      float* dst = y.data() + n * out_channels_ * length_ + oc * length_;
      const float* s = src + n * length_;
      for (std::size_t t = 0; t < length_; ++t) dst[t] = s[t] + bv;
    }
  }
}

void Conv1d::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  DSHUF_CHECK(cached_in_ != nullptr, "Conv1d backward before forward");
  const std::size_t N = cached_batch_;
  DSHUF_CHECK_EQ(grad_out.rows(), N, "Conv1d grad batch mismatch");
  DSHUF_CHECK_EQ(grad_out.cols(), out_channels_ * length_,
                 "Conv1d grad feature mismatch");
  grad_in.resize2(N, in_channels_ * length_);
  grad_in.zero();

  if (kernel_backend() == KernelBackend::kReference) {
    // The reference adds into dW and db one float term at a time in row
    // order, so it needs no segment boundaries to match per-segment passes.
    kernel_ref::conv1d_backward_ref(
        cached_in_->data(), weight_.value.data(), grad_out.data(),
        grad_in.data(), weight_.grad.data(), bias_.grad.data(), N,
        in_channels_, out_channels_, length_, kernel_);
    return;
  }

  const std::size_t nl = N * length_;
  const std::size_t ck = in_channels_ * kernel_;
  const std::size_t S = segment_len(N);

  // Gather dY into the GEMM layout, accumulating the bias gradient
  // (db[oc] = sum over n, t of dY, one sum per segment) on the way through.
  Tensor& g_big = scratch(kGradBigSlot);
  g_big.resize2(out_channels_, nl);
  float* db = bias_.grad.data();
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    float* dst = g_big.data() + oc * nl;
    for (std::size_t n0 = 0; n0 < N; n0 += S) {
      double bsum = 0.0;
      for (std::size_t n = n0; n < n0 + S; ++n) {
        const float* src =
            grad_out.data() + n * out_channels_ * length_ + oc * length_;
        float* d = dst + n * length_;
        for (std::size_t t = 0; t < length_; ++t) {
          d[t] = src[t];
          bsum += src[t];
        }
      }
      db[oc] += static_cast<float>(bsum);
    }
  }

  // dW += dY_big * cols^T — cols still holds this batch's im2col from the
  // forward pass (backward-follows-forward contract). A segment's samples
  // are S * L consecutive columns, i.e. one K segment of this GEMM.
  const Tensor& cols = scratch(kColsSlot);
  DSHUF_CHECK_EQ(cols.cols(), nl, "Conv1d backward without matching forward");
  gemm_raw(g_big.data(), cols.data(), weight_.grad.data(), out_channels_, ck,
           nl, /*a_transposed=*/false, /*b_transposed=*/true,
           /*accumulate=*/true, /*k_segment=*/S * length_);

  // dcols = W^T * dY_big, then the adjoint scatter back to signal layout.
  Tensor& dcols = scratch(kDColsSlot);
  dcols.resize2(ck, nl);
  gemm_raw(weight_.value.data(), g_big.data(), dcols.data(), ck, nl,
           out_channels_, /*a_transposed=*/true, /*b_transposed=*/false,
           /*accumulate=*/false);
  kernel::col2im_1d(dcols, N, in_channels_, length_, kernel_,
                    grad_in.data());
}

MaxPool1d::MaxPool1d(std::size_t channels, std::size_t length,
                     std::size_t window)
    : channels_(channels), length_(length), window_(window) {
  DSHUF_CHECK_GT(window, 0U, "pool window must be positive");
  DSHUF_CHECK_EQ(length % window, 0U,
                 "pool window must divide the signal length");
}

void MaxPool1d::forward_into(const Tensor& x, Tensor& y, bool /*training*/) {
  DSHUF_CHECK_EQ(x.cols(), channels_ * length_,
                 "MaxPool1d input feature mismatch");
  const std::size_t N = x.rows();
  const std::size_t out_len = length_ / window_;
  cached_batch_ = N;
  argmax_.assign(N * channels_ * out_len, 0);
  y.resize2(N, channels_ * out_len);
  const float* px = x.data();
  float* po = y.data();
  for (std::size_t n = 0; n < N; ++n) {
    for (std::size_t c = 0; c < channels_; ++c) {
      for (std::size_t o = 0; o < out_len; ++o) {
        const std::size_t base =
            n * channels_ * length_ + c * length_ + o * window_;
        std::size_t best = base;
        for (std::size_t k = 1; k < window_; ++k) {
          if (px[base + k] > px[best]) best = base + k;
        }
        const std::size_t oidx =
            n * channels_ * out_len + c * out_len + o;
        argmax_[oidx] = static_cast<std::uint32_t>(best);
        po[oidx] = px[best];
      }
    }
  }
}

void MaxPool1d::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  const std::size_t out_len = length_ / window_;
  DSHUF_CHECK_EQ(grad_out.rows(), cached_batch_,
                 "MaxPool1d grad batch mismatch");
  DSHUF_CHECK_EQ(grad_out.cols(), channels_ * out_len,
                 "MaxPool1d grad feature mismatch");
  grad_in.resize2(cached_batch_, channels_ * length_);
  grad_in.zero();
  const float* pg = grad_out.data();
  float* pgi = grad_in.data();
  for (std::size_t i = 0; i < argmax_.size(); ++i) {
    pgi[argmax_[i]] += pg[i];
  }
}

Model make_cnn(const CnnSpec& spec, Rng& rng) {
  DSHUF_CHECK_GT(spec.input_length, 0U, "input length must be positive");
  DSHUF_CHECK_GT(spec.num_classes, 1U, "need at least two classes");
  DSHUF_CHECK(!spec.channels.empty(), "need at least one conv block");
  Model m;
  std::size_t in_c = 1;
  std::size_t length = spec.input_length;
  for (std::size_t out_c : spec.channels) {
    DSHUF_CHECK_EQ(length % spec.pool, 0U,
                   "pool window must divide the running length");
    m.add(std::make_unique<Conv1d>(in_c, out_c, length, spec.kernel, rng));
    switch (spec.norm) {
      case NormKind::kBatchNorm:
        m.add(std::make_unique<BatchNorm1d>(out_c * length));
        break;
      case NormKind::kGroupNorm:
        m.add(std::make_unique<GroupNorm>(out_c * length, out_c));
        break;
      case NormKind::kNone:
        break;
    }
    m.add(std::make_unique<ReLU>());
    m.add(std::make_unique<MaxPool1d>(out_c, length, spec.pool));
    in_c = out_c;
    length /= spec.pool;
  }
  m.add(std::make_unique<Linear>(in_c * length, spec.num_classes, rng));
  return m;
}

}  // namespace dshuf::nn
