#include "tensor/kernel_ref.hpp"

#include <algorithm>
#include <cstring>

namespace dshuf::kernel_ref {

void gemm_ref(const float* a, const float* b, float* c, std::size_t m,
              std::size_t n, std::size_t k, bool a_transposed,
              bool b_transposed, bool accumulate, std::size_t k_segment) {
  if (!accumulate && m * n > 0) std::memset(c, 0, m * n * sizeof(float));
  const std::size_t k_seg = k_segment == 0 ? k : k_segment;
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (std::size_t j = 0; j < n; ++j) {
      for (std::size_t k0 = 0; k0 < k; k0 += k_seg) {
        float acc = 0.0F;
        for (std::size_t kk = k0; kk < std::min(k, k0 + k_seg); ++kk) {
          const float av = a_transposed ? a[kk * m + i] : a[i * k + kk];
          const float bv = b_transposed ? b[j * k + kk] : b[kk * n + j];
          acc += av * bv;
        }
        crow[j] += acc;
      }
    }
  }
}

void conv1d_forward_ref(const float* x, const float* w, const float* bias,
                        float* y, std::size_t n_batch, std::size_t in_c,
                        std::size_t out_c, std::size_t length,
                        std::size_t kernel) {
  const std::size_t pad = kernel / 2;
  for (std::size_t n = 0; n < n_batch; ++n) {
    const float* row = x + n * in_c * length;
    float* orow = y + n * out_c * length;
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      for (std::size_t t = 0; t < length; ++t) {
        double acc = bias[oc];
        for (std::size_t ic = 0; ic < in_c; ++ic) {
          for (std::size_t k = 0; k < kernel; ++k) {
            const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(t + k) -
                                       static_cast<std::ptrdiff_t>(pad);
            if (src < 0 || src >= static_cast<std::ptrdiff_t>(length)) {
              continue;  // zero padding
            }
            acc += w[(oc * in_c + ic) * kernel + k] *
                   row[ic * length + static_cast<std::size_t>(src)];
          }
        }
        orow[oc * length + t] = static_cast<float>(acc);
      }
    }
  }
}

void conv1d_backward_ref(const float* x, const float* w,
                         const float* grad_y, float* grad_x, float* dw,
                         float* dbias, std::size_t n_batch, std::size_t in_c,
                         std::size_t out_c, std::size_t length,
                         std::size_t kernel) {
  const std::size_t pad = kernel / 2;
  for (std::size_t n = 0; n < n_batch; ++n) {
    const float* row = x + n * in_c * length;
    const float* grow = grad_y + n * out_c * length;
    float* girow = grad_x + n * in_c * length;
    for (std::size_t oc = 0; oc < out_c; ++oc) {
      for (std::size_t t = 0; t < length; ++t) {
        const float g = grow[oc * length + t];
        dbias[oc] += g;
        for (std::size_t ic = 0; ic < in_c; ++ic) {
          for (std::size_t k = 0; k < kernel; ++k) {
            const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(t + k) -
                                       static_cast<std::ptrdiff_t>(pad);
            if (src < 0 || src >= static_cast<std::ptrdiff_t>(length)) {
              continue;
            }
            const auto s = static_cast<std::size_t>(src);
            dw[(oc * in_c + ic) * kernel + k] += g * row[ic * length + s];
            girow[ic * length + s] += g * w[(oc * in_c + ic) * kernel + k];
          }
        }
      }
    }
  }
}

}  // namespace dshuf::kernel_ref
