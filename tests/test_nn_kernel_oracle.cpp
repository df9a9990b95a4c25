// The BatchNorm1d and ReLU kernels walk rows in the outer loop so their
// per-column work vectorises, take BatchNorm statistics per row segment,
// and select rather than branch in ReLU's backward. This suite keeps the
// scalar column-at-a-time kernels they replaced as an oracle and requires
// identical bits — on NaN, signed-zero and denormal inputs, at column
// counts that do and do not fill a vector, with 2-row segments, and in
// eval mode. A stacked pass must equal the oracle run once per segment
// in turn, running statistics and parameter gradients included.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "nn/layers.hpp"
#include "nn/norm.hpp"
#include "util/rng.hpp"

namespace dshuf::nn {
namespace {

/// The scalar BatchNorm1d the segmented kernel replaced: one column at a
/// time, each with an ascending-row double chain.
struct OracleBatchNorm {
  std::size_t C;
  float momentum = 0.1F;
  float eps = 1e-5F;
  std::vector<float> gamma, beta, running_mean, running_var;
  std::vector<float> dgamma, dbeta;
  std::vector<float> xhat, inv_std;
  std::size_t batch = 0;

  explicit OracleBatchNorm(std::size_t c)
      : C(c),
        gamma(c, 1.0F),
        beta(c, 0.0F),
        running_mean(c, 0.0F),
        running_var(c, 1.0F),
        dgamma(c, 0.0F),
        dbeta(c, 0.0F) {}

  void forward(const float* px, std::size_t N, float* po, bool training) {
    batch = N;
    xhat.assign(N * C, 0.0F);
    inv_std.assign(C, 0.0F);
    for (std::size_t j = 0; j < C; ++j) {
      float mean;
      float var;
      if (training) {
        double sum = 0.0;
        for (std::size_t i = 0; i < N; ++i) sum += px[i * C + j];
        mean = static_cast<float>(sum / static_cast<double>(N));
        double ss = 0.0;
        for (std::size_t i = 0; i < N; ++i) {
          const double d = px[i * C + j] - mean;
          ss += d * d;
        }
        var = static_cast<float>(ss / static_cast<double>(N));
        const float unbiased =
            static_cast<float>(ss / static_cast<double>(N - 1));
        running_mean[j] =
            (1.0F - momentum) * running_mean[j] + momentum * mean;
        running_var[j] =
            (1.0F - momentum) * running_var[j] + momentum * unbiased;
      } else {
        mean = running_mean[j];
        var = running_var[j];
      }
      const float is = 1.0F / std::sqrt(var + eps);
      inv_std[j] = is;
      for (std::size_t i = 0; i < N; ++i) {
        const float xh = (px[i * C + j] - mean) * is;
        xhat[i * C + j] = xh;
        po[i * C + j] = gamma[j] * xh + beta[j];
      }
    }
  }

  void backward(const float* dy, float* dx) {
    const std::size_t N = batch;
    const auto n = static_cast<float>(N);
    for (std::size_t j = 0; j < C; ++j) {
      double sum_dy = 0.0;
      double sum_dy_xhat = 0.0;
      for (std::size_t i = 0; i < N; ++i) {
        sum_dy += dy[i * C + j];
        sum_dy_xhat += static_cast<double>(dy[i * C + j]) * xhat[i * C + j];
      }
      dgamma[j] += static_cast<float>(sum_dy_xhat);
      dbeta[j] += static_cast<float>(sum_dy);
      const auto mdy = static_cast<float>(sum_dy / n);
      const auto mdyx = static_cast<float>(sum_dy_xhat / n);
      for (std::size_t i = 0; i < N; ++i) {
        dx[i * C + j] = gamma[j] * inv_std[j] *
                        (dy[i * C + j] - mdy - xhat[i * C + j] * mdyx);
      }
    }
  }
};

float oracle_relu(float x) { return x > 0.0F ? x : 0.0F; }
float oracle_relu_grad(float x, float go) { return x > 0.0F ? go : 0.0F; }

/// Equal bit patterns (so -0 differs from +0), any two NaNs equal.
bool same_bits(float a, float b) {
  return (std::isnan(a) && std::isnan(b)) ||
         std::bit_cast<std::uint32_t>(a) == std::bit_cast<std::uint32_t>(b);
}

void expect_same(const float* got, const float* want, std::size_t n,
                 const char* what) {
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_TRUE(same_bits(got[i], want[i]))
        << what << "[" << i << "]: " << got[i] << " vs " << want[i];
  }
}

void expect_same(const std::vector<float>& got, const std::vector<float>& want,
                 const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  expect_same(got.data(), want.data(), got.size(), what);
}

constexpr float kDenorm = 1.0e-41F;

/// Gaussian data with the awkward values planted at fixed strides.
std::vector<float> awkward(std::size_t n, Rng& rng, bool with_nan) {
  std::vector<float> v(n);
  for (auto& x : v) x = static_cast<float>(rng.normal()) * 2.0F;
  const float specials[] = {0.0F, -0.0F, kDenorm, -kDenorm, 3.0F * kDenorm,
                            -1.0e30F, 1.0e-30F};
  for (std::size_t i = 0, k = 0; i < n; i += 5, ++k) {
    v[i] = specials[k % std::size(specials)];
  }
  if (with_nan && n > 3) v[n / 2 + 1] = std::numeric_limits<float>::quiet_NaN();
  return v;
}

/// Sets gamma/beta/running stats of both implementations identically.
void seed_state(BatchNorm1d& bn, OracleBatchNorm& ref, Rng& rng) {
  const std::size_t C = ref.C;
  for (std::size_t j = 0; j < C; ++j) {
    ref.gamma[j] = 1.0F + 0.5F * static_cast<float>(rng.normal());
    ref.beta[j] = 0.5F * static_cast<float>(rng.normal());
    ref.running_mean[j] = 0.1F * static_cast<float>(rng.normal());
    ref.running_var[j] = 1.0F + 0.25F * static_cast<float>(rng.uniform());
  }
  const auto params = bn.params();
  params[0]->value.vec() = ref.gamma;
  params[1]->value.vec() = ref.beta;
  bn.running_mean().vec() = ref.running_mean;
  bn.running_var().vec() = ref.running_var;
}

/// One stacked training pass over `segments` segments of S rows against
/// the oracle run per segment; then an eval pass over the whole stack.
void check_batchnorm(std::size_t C, std::size_t S, std::size_t segments,
                     bool with_nan, std::uint64_t seed) {
  SCOPED_TRACE(::testing::Message() << "C=" << C << " S=" << S
                                    << " segments=" << segments
                                    << " nan=" << with_nan);
  Rng rng(seed);
  const std::size_t N = S * segments;
  BatchNorm1d bn(C);
  OracleBatchNorm ref(C);
  seed_state(bn, ref, rng);
  const auto xv = awkward(N * C, rng, with_nan);
  const auto gv = awkward(N * C, rng, with_nan);
  const Tensor x({N, C}, xv);
  const Tensor g({N, C}, gv);

  bn.set_segment_rows(segments == 1 ? 0 : S);
  Tensor y;
  Tensor dx;
  bn.forward_into(x, y, /*training=*/true);
  bn.backward_into(g, dx);

  std::vector<float> want_y(N * C);
  std::vector<float> want_dx(N * C);
  for (std::size_t s = 0; s < segments; ++s) {
    ref.forward(xv.data() + s * S * C, S, want_y.data() + s * S * C, true);
    ref.backward(gv.data() + s * S * C, want_dx.data() + s * S * C);
  }
  expect_same(y.data(), want_y.data(), N * C, "y");
  expect_same(dx.data(), want_dx.data(), N * C, "dx");
  const auto params = bn.params();
  expect_same(params[0]->grad.vec(), ref.dgamma, "dgamma");
  expect_same(params[1]->grad.vec(), ref.dbeta, "dbeta");
  expect_same(bn.running_mean().vec(), ref.running_mean, "running_mean");
  expect_same(bn.running_var().vec(), ref.running_var, "running_var");

  // Eval: running statistics for every row, segments or not.
  bn.forward_into(x, y, /*training=*/false);
  ref.forward(xv.data(), N, want_y.data(), false);
  expect_same(y.data(), want_y.data(), N * C, "eval y");
  bn.set_segment_rows(0);
  bn.forward_into(x, y, /*training=*/false);
  expect_same(y.data(), want_y.data(), N * C, "eval y, one segment");
}

TEST(NnKernelOracle, BatchNormMatchesScalarPerSegment) {
  std::uint64_t seed = 1;
  for (std::size_t C : {1, 7, 9, 96}) {
    for (std::size_t S : {2, 3, 8}) {
      for (std::size_t segments : {1, 3, 16}) {
        check_batchnorm(C, S, segments, /*with_nan=*/false, seed++);
      }
    }
  }
}

TEST(NnKernelOracle, BatchNormNaNStaysInItsColumnAndSegment) {
  std::uint64_t seed = 100;
  for (std::size_t C : {1, 7, 9, 96}) {
    check_batchnorm(C, 2, 4, /*with_nan=*/true, seed++);
    check_batchnorm(C, 5, 1, /*with_nan=*/true, seed++);
  }
}

TEST(NnKernelOracle, BatchNormEvalBeforeAnyTraining) {
  for (std::size_t C : {1, 7, 9, 96}) {
    Rng rng(C);
    BatchNorm1d bn(C);
    OracleBatchNorm ref(C);
    seed_state(bn, ref, rng);
    const std::size_t N = 11;
    const auto xv = awkward(N * C, rng, /*with_nan=*/true);
    Tensor y;
    bn.forward_into(Tensor({N, C}, xv), y, /*training=*/false);
    std::vector<float> want(N * C);
    ref.forward(xv.data(), N, want.data(), false);
    expect_same(y.data(), want.data(), N * C, "eval y");
  }
}

TEST(NnKernelOracle, ReluMatchesScalarBitForBit) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const std::vector<float> specials = {nan,     -nan,     0.0F,  -0.0F,
                                       kDenorm, -kDenorm, inf,   -inf,
                                       1.5F,    -2.5F,    1e-30F};
  for (std::size_t n : {1, 7, 9, 96, 131}) {
    std::vector<float> xv(n);
    std::vector<float> gv(n);
    for (std::size_t i = 0; i < n; ++i) {
      xv[i] = specials[i % specials.size()];
      gv[i] = specials[(i * 7 + 3) % specials.size()];
    }
    ReLU relu;
    const Tensor x({n}, xv);
    Tensor y;
    Tensor dx;
    relu.forward_into(x, y, /*training=*/true);
    relu.backward_into(Tensor({n}, gv), dx);
    for (std::size_t i = 0; i < n; ++i) {
      // Strict bits: both kernels only copy or select, so even NaN
      // payloads must pass through unchanged.
      EXPECT_EQ(std::bit_cast<std::uint32_t>(y.at(i)),
                std::bit_cast<std::uint32_t>(oracle_relu(xv[i])))
          << "forward x=" << xv[i];
      EXPECT_EQ(std::bit_cast<std::uint32_t>(dx.at(i)),
                std::bit_cast<std::uint32_t>(oracle_relu_grad(xv[i], gv[i])))
          << "backward x=" << xv[i] << " go=" << gv[i];
    }
  }
}

}  // namespace
}  // namespace dshuf::nn
