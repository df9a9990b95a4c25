#include "tensor/im2col.hpp"

#include <algorithm>
#include <cstring>

namespace dshuf::kernel {

namespace {

/// Valid t-range [lo, hi) of kernel tap k: src = t + k - pad must lie in
/// [0, length). Signed math because pad - k can be negative.
void tap_range(std::size_t length, std::size_t kernel, std::size_t k,
               std::size_t& lo, std::size_t& hi) {
  const auto len = static_cast<std::ptrdiff_t>(length);
  const auto off = static_cast<std::ptrdiff_t>(k) -
                   static_cast<std::ptrdiff_t>(kernel / 2);
  lo = static_cast<std::size_t>(std::max<std::ptrdiff_t>(0, -off));
  hi = static_cast<std::size_t>(
      std::clamp<std::ptrdiff_t>(len - off, 0, len));
}

}  // namespace

void im2col_1d(const float* x, std::size_t n_batch, std::size_t in_c,
               std::size_t length, std::size_t kernel, Tensor& cols) {
  const std::size_t pad = kernel / 2;
  const std::size_t nl = n_batch * length;
  cols.resize2(in_c * kernel, nl);
  float* pc = cols.data();
  for (std::size_t row = 0; row < in_c * kernel; ++row) {
    const std::size_t ic = row / kernel;
    const std::size_t k = row % kernel;
    std::size_t lo = 0;
    std::size_t hi = 0;
    tap_range(length, kernel, k, lo, hi);
    float* crow = pc + row * nl;
    for (std::size_t n = 0; n < n_batch; ++n) {
      float* dst = crow + n * length;
      if (lo > 0) std::memset(dst, 0, lo * sizeof(float));
      if (hi > lo) {
        const float* src =
            x + n * in_c * length + ic * length + (lo + k - pad);
        std::memcpy(dst + lo, src, (hi - lo) * sizeof(float));
      }
      if (hi < length) {
        std::memset(dst + hi, 0, (length - hi) * sizeof(float));
      }
    }
  }
}

void col2im_1d(const Tensor& dcols, std::size_t n_batch, std::size_t in_c,
               std::size_t length, std::size_t kernel, float* grad_x) {
  const std::size_t pad = kernel / 2;
  const std::size_t nl = n_batch * length;
  DSHUF_CHECK_EQ(dcols.rows(), in_c * kernel, "col2im row mismatch");
  DSHUF_CHECK_EQ(dcols.cols(), nl, "col2im column mismatch");
  const float* pc = dcols.data();
  // Scatter-add: the k taps of one channel overlap in grad_x, so each
  // grad_x element receives its additions in ascending k order.
  for (std::size_t ic = 0; ic < in_c; ++ic) {
    for (std::size_t k = 0; k < kernel; ++k) {
      std::size_t lo = 0;
      std::size_t hi = 0;
      tap_range(length, kernel, k, lo, hi);
      const float* crow = pc + (ic * kernel + k) * nl;
      for (std::size_t n = 0; n < n_batch; ++n) {
        const float* src = crow + n * length + lo;
        float* dst = grad_x + n * in_c * length + ic * length + (lo + k - pad);
        const std::size_t run = hi - lo;
        for (std::size_t t = 0; t < run; ++t) dst[t] += src[t];
      }
    }
  }
}

}  // namespace dshuf::kernel
