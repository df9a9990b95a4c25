#include "nn/norm.hpp"

#include <algorithm>
#include <cmath>

namespace dshuf::nn {

namespace {

// BatchNorm kernels over one segment of S rows x C columns. Rows are the
// outer loop, so the work across columns vectorises, and each column
// keeps its ascending-row chain. No two pointers alias; __restrict says
// so, without which g++ leaves the many-operand loops scalar.

/// sum[j] += x[i][j] over the segment's rows, in row order.
void add_column_sums(const float* __restrict x, std::size_t S, std::size_t C,
                     double* __restrict sum) {
  for (std::size_t i = 0; i < S; ++i) {
    const float* row = x + i * C;
    for (std::size_t j = 0; j < C; ++j) sum[j] += row[j];
  }
}

/// ss[j] += (x[i][j] - mean[j])^2, the difference taken in float and then
/// widened, in row order.
void add_column_sq_devs(const float* __restrict x,
                        const float* __restrict mean, std::size_t S,
                        std::size_t C, double* __restrict ss) {
  for (std::size_t i = 0; i < S; ++i) {
    const float* row = x + i * C;
    for (std::size_t j = 0; j < C; ++j) {
      const double d = row[j] - mean[j];
      ss[j] += d * d;
    }
  }
}

void normalise(const float* __restrict x, const float* __restrict mean,
               const float* __restrict inv_std, const float* __restrict g,
               const float* __restrict b, std::size_t S, std::size_t C,
               float* __restrict xhat, float* __restrict y) {
  for (std::size_t i = 0; i < S; ++i) {
    const float* row = x + i * C;
    float* xh_row = xhat + i * C;
    float* out = y + i * C;
    for (std::size_t j = 0; j < C; ++j) {
      const float xh = (row[j] - mean[j]) * inv_std[j];
      xh_row[j] = xh;
      out[j] = g[j] * xh + b[j];
    }
  }
}

/// sum_dy[j] += dy, sum_dy_xhat[j] += dy * xhat, in row order.
void add_grad_sums(const float* __restrict dy, const float* __restrict xhat,
                   std::size_t S, std::size_t C,
                   double* __restrict sum_dy, double* __restrict sum_dy_xhat) {
  for (std::size_t i = 0; i < S; ++i) {
    const float* dy_row = dy + i * C;
    const float* xh_row = xhat + i * C;
    for (std::size_t j = 0; j < C; ++j) {
      sum_dy[j] += dy_row[j];
      sum_dy_xhat[j] += static_cast<double>(dy_row[j]) * xh_row[j];
    }
  }
}

/// Standard BN backward:
/// dx = g*inv_std*(dy - mean(dy) - xhat*mean(dy*xhat)).
void grad_input(const float* __restrict dy, const float* __restrict xhat,
                const float* __restrict g, const float* __restrict inv_std,
                const float* __restrict mdy, const float* __restrict mdyx,
                std::size_t S, std::size_t C, float* __restrict dx) {
  for (std::size_t i = 0; i < S; ++i) {
    const float* dy_row = dy + i * C;
    const float* xh_row = xhat + i * C;
    float* dx_row = dx + i * C;
    for (std::size_t j = 0; j < C; ++j) {
      dx_row[j] =
          g[j] * inv_std[j] * (dy_row[j] - mdy[j] - xh_row[j] * mdyx[j]);
    }
  }
}

}  // namespace

BatchNorm1d::BatchNorm1d(std::size_t features, float momentum, float eps)
    : features_(features),
      momentum_(momentum),
      eps_(eps),
      gamma_("bn.gamma", Tensor::full({features}, 1.0F), /*decay=*/false),
      beta_("bn.beta", Tensor({features}), /*decay=*/false),
      running_mean_({features}),
      running_var_(Tensor::full({features}, 1.0F)),
      sum_(features),
      sum2_(features),
      col_(features),
      col2_(features) {}

void BatchNorm1d::forward_into(const Tensor& x, Tensor& y, bool training) {
  DSHUF_CHECK_EQ(x.cols(), features_, "BatchNorm feature mismatch");
  const std::size_t N = x.rows();
  const std::size_t C = features_;
  const std::size_t S = segment_len(N);
  if (training) {
    DSHUF_CHECK_GT(S, 1U,
                   "BatchNorm training needs more than one row per segment");
  }
  const std::size_t segments = S == 0 ? 0 : N / S;
  y.resize2(N, C);
  Tensor& xhat = scratch(kXhatSlot);
  xhat.resize2(N, C);
  Tensor& inv_std_t = scratch(kInvStdSlot);
  inv_std_t.resize2(segments, C);
  cached_batch_ = N;

  float* rm = running_mean_.data();
  float* rv = running_var_.data();
  double* sum = sum_.data();
  float* mean = col_.data();
  const auto n = static_cast<double>(S);

  for (std::size_t seg = 0; seg < segments; ++seg) {
    const float* px = x.data() + seg * S * C;
    float* inv_std = inv_std_t.data() + seg * C;
    if (training) {
      std::fill(sum_.begin(), sum_.end(), 0.0);
      add_column_sums(px, S, C, sum);
      for (std::size_t j = 0; j < C; ++j) {
        mean[j] = static_cast<float>(sum[j] / n);
      }
      std::fill(sum_.begin(), sum_.end(), 0.0);
      add_column_sq_devs(px, mean, S, C, sum);
      for (std::size_t j = 0; j < C; ++j) {
        const auto var = static_cast<float>(sum[j] / n);  // biased
        // PyTorch-style running update (uses unbiased variance).
        const auto unbiased = static_cast<float>(sum[j] / (n - 1.0));
        rm[j] = (1.0F - momentum_) * rm[j] + momentum_ * mean[j];
        rv[j] = (1.0F - momentum_) * rv[j] + momentum_ * unbiased;
        inv_std[j] = 1.0F / std::sqrt(var + eps_);
      }
    } else {
      for (std::size_t j = 0; j < C; ++j) {
        mean[j] = rm[j];
        inv_std[j] = 1.0F / std::sqrt(rv[j] + eps_);
      }
    }
    normalise(px, mean, inv_std, gamma_.value.data(), beta_.value.data(), S,
              C, xhat.data() + seg * S * C, y.data() + seg * S * C);
  }
}

void BatchNorm1d::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  const std::size_t N = cached_batch_;
  const std::size_t C = features_;
  DSHUF_CHECK_EQ(grad_out.rows(), N, "BatchNorm grad batch mismatch");
  DSHUF_CHECK_EQ(grad_out.cols(), C, "BatchNorm grad feature mismatch");
  grad_in.resize2(N, C);
  const Tensor& xhat = scratch(kXhatSlot);
  const Tensor& inv_std_t = scratch(kInvStdSlot);
  DSHUF_CHECK_EQ(xhat.size(), N * C, "BatchNorm backward before forward");
  const std::size_t segments = inv_std_t.rows();
  const std::size_t S = segments == 0 ? 0 : N / segments;
  float* dg = gamma_.grad.data();
  float* db = beta_.grad.data();
  double* sum_dy = sum_.data();
  double* sum_dy_xhat = sum2_.data();
  float* mdy = col_.data();
  float* mdyx = col2_.data();
  const auto n = static_cast<float>(S);

  for (std::size_t seg = 0; seg < segments; ++seg) {
    const float* dy = grad_out.data() + seg * S * C;
    const float* xh = xhat.data() + seg * S * C;
    std::fill(sum_.begin(), sum_.end(), 0.0);
    std::fill(sum2_.begin(), sum2_.end(), 0.0);
    add_grad_sums(dy, xh, S, C, sum_dy, sum_dy_xhat);
    for (std::size_t j = 0; j < C; ++j) {
      dg[j] += static_cast<float>(sum_dy_xhat[j]);
      db[j] += static_cast<float>(sum_dy[j]);
      mdy[j] = static_cast<float>(sum_dy[j] / n);
      mdyx[j] = static_cast<float>(sum_dy_xhat[j] / n);
    }
    grad_input(dy, xh, gamma_.value.data(), inv_std_t.data() + seg * C, mdy,
               mdyx, S, C, grad_in.data() + seg * S * C);
  }
}

GroupNorm::GroupNorm(std::size_t features, std::size_t groups, float eps)
    : features_(features),
      groups_(groups),
      group_size_(groups == 0 ? 0 : features / groups),
      eps_(eps),
      gamma_("gn.gamma", Tensor::full({features}, 1.0F), /*decay=*/false),
      beta_("gn.beta", Tensor({features}), /*decay=*/false) {
  DSHUF_CHECK_GT(groups, 0U, "GroupNorm needs at least one group");
  DSHUF_CHECK_EQ(features % groups, 0U,
                 "GroupNorm features must divide evenly into groups");
}

void GroupNorm::forward_into(const Tensor& x, Tensor& y, bool /*training*/) {
  DSHUF_CHECK_EQ(x.cols(), features_, "GroupNorm feature mismatch");
  const std::size_t N = x.rows();
  const std::size_t C = features_;
  const std::size_t G = groups_;
  const std::size_t GS = group_size_;
  y.resize2(N, C);
  Tensor& xhat = scratch(kXhatSlot);
  xhat.resize2(N, C);
  Tensor& inv_std_t = scratch(kInvStdSlot);
  inv_std_t.resize2(N, G);

  const float* px = x.data();
  float* pxh = xhat.data();
  float* po = y.data();
  const float* g = gamma_.value.data();
  const float* b = beta_.value.data();

  for (std::size_t i = 0; i < N; ++i) {
    const float* row = px + i * C;
    for (std::size_t grp = 0; grp < G; ++grp) {
      const std::size_t c0 = grp * GS;
      double sum = 0.0;
      for (std::size_t c = c0; c < c0 + GS; ++c) sum += row[c];
      const auto mean = static_cast<float>(sum / static_cast<double>(GS));
      double ss = 0.0;
      for (std::size_t c = c0; c < c0 + GS; ++c) {
        const double d = row[c] - mean;
        ss += d * d;
      }
      const auto var = static_cast<float>(ss / static_cast<double>(GS));
      const float inv_std = 1.0F / std::sqrt(var + eps_);
      inv_std_t.at(i, grp) = inv_std;
      for (std::size_t c = c0; c < c0 + GS; ++c) {
        const float xh = (row[c] - mean) * inv_std;
        pxh[i * C + c] = xh;
        po[i * C + c] = g[c] * xh + b[c];
      }
    }
  }
}

void GroupNorm::backward_into(const Tensor& grad_out, Tensor& grad_in) {
  const Tensor& xhat = scratch(kXhatSlot);
  const Tensor& inv_std_t = scratch(kInvStdSlot);
  DSHUF_CHECK_GT(xhat.size(), 0U, "GroupNorm backward before forward");
  const std::size_t N = xhat.rows();
  const std::size_t C = features_;
  const std::size_t G = groups_;
  const std::size_t GS = group_size_;
  DSHUF_CHECK_EQ(grad_out.rows(), N, "GroupNorm grad batch mismatch");
  DSHUF_CHECK_EQ(grad_out.cols(), C, "GroupNorm grad feature mismatch");
  grad_in.resize2(N, C);
  const float* dy = grad_out.data();
  const float* xh = xhat.data();
  float* dx = grad_in.data();
  const float* g = gamma_.value.data();
  float* dg = gamma_.grad.data();
  float* db = beta_.grad.data();

  // dgamma/dbeta: one column sum per segment, added in segment order.
  const std::size_t S = segment_len(N);
  for (std::size_t r0 = 0; r0 < N; r0 += S) {
    for (std::size_t c = 0; c < C; ++c) {
      double sdg = 0.0;
      double sdb = 0.0;
      for (std::size_t i = r0; i < r0 + S; ++i) {
        sdg += static_cast<double>(dy[i * C + c]) * xh[i * C + c];
        sdb += dy[i * C + c];
      }
      dg[c] += static_cast<float>(sdg);
      db[c] += static_cast<float>(sdb);
    }
  }

  const auto gs = static_cast<float>(GS);
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t grp = 0; grp < G; ++grp) {
      const std::size_t c0 = grp * GS;
      double sum_t = 0.0;       // sum of g*dy over group
      double sum_t_xhat = 0.0;  // sum of g*dy*xhat over group
      for (std::size_t c = c0; c < c0 + GS; ++c) {
        const double t = static_cast<double>(g[c]) * dy[i * C + c];
        sum_t += t;
        sum_t_xhat += t * xh[i * C + c];
      }
      const float inv_std = inv_std_t.at(i, grp);
      const auto mt = static_cast<float>(sum_t / gs);
      const auto mtx = static_cast<float>(sum_t_xhat / gs);
      for (std::size_t c = c0; c < c0 + GS; ++c) {
        dx[i * C + c] =
            inv_std * (g[c] * dy[i * C + c] - mt - xh[i * C + c] * mtx);
      }
    }
  }
}

}  // namespace dshuf::nn
