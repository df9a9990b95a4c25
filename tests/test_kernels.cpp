// Equivalence and determinism tests for the blocked compute kernels.
//
// The blocked GEMM must match the retained reference kernel numerically
// on every shape class (edge tiles, single rows/cols, sizes straddling
// the micro-tile), and — per the determinism contract in
// tensor/gemm_kernel.hpp — must be bit-identical across repeated runs
// and across cache-block configurations. Conv1d's im2col+GEMM path is
// checked against the scalar reference both ways through the layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "nn/conv.hpp"
#include "tensor/gemm_kernel.hpp"
#include "tensor/im2col.hpp"
#include "tensor/kernel_ref.hpp"
#include "tensor/tensor.hpp"

namespace {

using namespace dshuf;

constexpr std::size_t kSizes[] = {1, 3, 7, 17, 64, 100};

// Reference and blocked kernels both accumulate each output element in a
// single ascending-k float chain, but vectorization/FMA may contract
// differently; a small absolute tolerance on unit-scale data covers it.
constexpr float kTol = 1e-3F;

float max_abs_diff(const Tensor& a, const Tensor& b) {
  EXPECT_EQ(a.size(), b.size());
  float m = 0.0F;
  for (std::size_t i = 0; i < a.size(); ++i) {
    m = std::max(m, std::fabs(a.data()[i] - b.data()[i]));
  }
  return m;
}

using GemmFn = void (*)(const Tensor&, const Tensor&, Tensor&, bool);

struct Variant {
  const char* name;
  GemmFn fn;
  // Shapes of (a, b, out) for logical result M x N with inner dim K.
  bool a_is_km;  // a stored [K, M] (gemm_at_b)
  bool b_is_nk;  // b stored [N, K] (gemm_a_bt)
};

constexpr Variant kVariants[] = {
    {"gemm", gemm, false, false},
    {"gemm_at_b", gemm_at_b, true, false},
    {"gemm_a_bt", gemm_a_bt, false, true},
};

TEST(GemmEquivalence, BlockedMatchesReferenceAllVariants) {
  Rng rng(11);
  for (const auto& v : kVariants) {
    for (std::size_t m : kSizes) {
      for (std::size_t n : kSizes) {
        for (std::size_t k : kSizes) {
          const Tensor a = Tensor::randn(v.a_is_km ? std::vector<std::size_t>{k, m}
                                                   : std::vector<std::size_t>{m, k},
                                         rng);
          const Tensor b = Tensor::randn(v.b_is_nk ? std::vector<std::size_t>{n, k}
                                                   : std::vector<std::size_t>{k, n},
                                         rng);
          Tensor blocked({m, n});
          Tensor ref({m, n});
          {
            const ScopedKernelBackend s(KernelBackend::kBlocked);
            v.fn(a, b, blocked, false);
          }
          {
            const ScopedKernelBackend s(KernelBackend::kReference);
            v.fn(a, b, ref, false);
          }
          ASSERT_LE(max_abs_diff(blocked, ref), kTol)
              << v.name << " m=" << m << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(GemmEquivalence, AccumulateAddsOntoExistingOutput) {
  Rng rng(13);
  for (const auto& v : kVariants) {
    const std::size_t m = 17;
    const std::size_t n = 100;
    const std::size_t k = 7;
    const Tensor a =
        Tensor::randn(v.a_is_km ? std::vector<std::size_t>{k, m}
                                : std::vector<std::size_t>{m, k},
                      rng);
    const Tensor b =
        Tensor::randn(v.b_is_nk ? std::vector<std::size_t>{n, k}
                                : std::vector<std::size_t>{k, n},
                      rng);
    const Tensor seed = Tensor::randn({m, n}, rng);
    Tensor blocked;
    copy_into(seed, blocked);
    Tensor ref;
    copy_into(seed, ref);
    {
      const ScopedKernelBackend s(KernelBackend::kBlocked);
      v.fn(a, b, blocked, true);
    }
    {
      const ScopedKernelBackend s(KernelBackend::kReference);
      v.fn(a, b, ref, true);
    }
    ASSERT_LE(max_abs_diff(blocked, ref), kTol) << v.name;
    // And the accumulate really added onto the seed, not overwrote it.
    Tensor plain({m, n});
    {
      const ScopedKernelBackend s(KernelBackend::kBlocked);
      v.fn(a, b, plain, false);
    }
    float m_diff = 0.0F;
    for (std::size_t i = 0; i < plain.size(); ++i) {
      m_diff = std::max(m_diff, std::fabs(blocked.data()[i] - seed.data()[i] -
                                          plain.data()[i]));
    }
    ASSERT_LE(m_diff, kTol) << v.name;
  }
}

TEST(GemmDeterminism, BitIdenticalAcrossRuns) {
  Rng rng(17);
  for (std::size_t m : {std::size_t{7}, std::size_t{100}}) {
    const std::size_t n = 65;
    const std::size_t k = 33;
    const Tensor a = Tensor::randn({m, k}, rng);
    const Tensor b = Tensor::randn({k, n}, rng);
    Tensor out1({m, n});
    Tensor out2({m, n});
    kernel::gemm_blocked(a.data(), b.data(), out1.data(), m, n, k, false,
                         false, false);
    kernel::gemm_blocked(a.data(), b.data(), out2.data(), m, n, k, false,
                         false, false);
    ASSERT_EQ(std::memcmp(out1.data(), out2.data(), m * n * sizeof(float)), 0)
        << "m=" << m;
  }
}

TEST(GemmDeterminism, BitIdenticalAcrossBlockConfigs) {
  // The determinism contract: results are independent of the cache-block
  // configuration because there is no K-blocking and padded edge lanes
  // are never stored. Exercised across all three transpose modes with
  // blocks far smaller than, equal to, and larger than the problem.
  const kernel::BlockConfig configs[] = {{64, 512}, {24, 56}, {8, 32}};
  Rng rng(19);
  const std::size_t m = 50;
  const std::size_t n = 70;
  const std::size_t k = 90;
  for (bool at : {false, true}) {
    for (bool bt : {false, true}) {
      if (at && bt) continue;  // no public entry point uses both
      const Tensor a = Tensor::randn(at ? std::vector<std::size_t>{k, m}
                                        : std::vector<std::size_t>{m, k},
                                     rng);
      const Tensor b = Tensor::randn(bt ? std::vector<std::size_t>{n, k}
                                        : std::vector<std::size_t>{k, n},
                                     rng);
      Tensor base({m, n});
      kernel::gemm_blocked(a.data(), b.data(), base.data(), m, n, k, at, bt,
                           false, configs[0]);
      for (std::size_t c = 1; c < std::size(configs); ++c) {
        Tensor out({m, n});
        kernel::gemm_blocked(a.data(), b.data(), out.data(), m, n, k, at, bt,
                             false, configs[c]);
        ASSERT_EQ(
            std::memcmp(base.data(), out.data(), m * n * sizeof(float)), 0)
            << "at=" << at << " bt=" << bt << " config " << c;
      }
    }
  }
}

/// Copies logical columns [k0, k0 + kw) of the K dimension out of an
/// operand stored [K, X] (k_major) or [X, K].
std::vector<float> k_slice(const Tensor& t, bool k_major, std::size_t x,
                           std::size_t k, std::size_t k0, std::size_t kw) {
  std::vector<float> out(x * kw);
  for (std::size_t kk = 0; kk < kw; ++kk) {
    for (std::size_t i = 0; i < x; ++i) {
      if (k_major) {
        out[kk * x + i] = t.data()[(k0 + kk) * x + i];
      } else {
        out[i * kw + kk] = t.data()[i * k + k0 + kk];
      }
    }
  }
  return out;
}

TEST(GemmDeterminism, KSegmentsEqualOneCallPerSegment) {
  // k_segment must give exactly what one call per K segment gives: each
  // segment's chain starts from zero and lands in C in segment order.
  // Covers every transpose mode, a ragged last segment, both accumulate
  // modes, and the reference kernel.
  Rng rng(23);
  const std::size_t m = 19;
  const std::size_t n = 37;
  const std::size_t k = 29;
  for (bool at : {false, true}) {
    for (bool bt : {false, true}) {
      if (at && bt) continue;
      const Tensor a = Tensor::randn(at ? std::vector<std::size_t>{k, m}
                                        : std::vector<std::size_t>{m, k},
                                     rng);
      const Tensor b = Tensor::randn(bt ? std::vector<std::size_t>{n, k}
                                        : std::vector<std::size_t>{k, n},
                                     rng);
      const Tensor c0 = Tensor::randn({m, n}, rng);
      for (std::size_t seg : {std::size_t{1}, std::size_t{4}, std::size_t{8},
                              std::size_t{29}, std::size_t{64}}) {
        for (bool acc : {false, true}) {
          Tensor want = c0;
          Tensor want_ref = c0;
          for (std::size_t k0 = 0; k0 < k; k0 += seg) {
            const std::size_t kw = std::min(seg, k - k0);
            const auto as = k_slice(a, at, m, k, k0, kw);
            const auto bs = k_slice(b, !bt, n, k, k0, kw);
            kernel::gemm_blocked(as.data(), bs.data(), want.data(), m, n, kw,
                                 at, bt, acc || k0 > 0);
            kernel_ref::gemm_ref(as.data(), bs.data(), want_ref.data(), m, n,
                                 kw, at, bt, acc || k0 > 0);
          }
          Tensor got = c0;
          Tensor got_ref = c0;
          kernel::gemm_blocked(a.data(), b.data(), got.data(), m, n, k, at,
                               bt, acc, {}, seg);
          kernel_ref::gemm_ref(a.data(), b.data(), got_ref.data(), m, n, k,
                               at, bt, acc, seg);
          EXPECT_EQ(std::memcmp(got.data(), want.data(), m * n * 4), 0)
              << "at=" << at << " bt=" << bt << " seg=" << seg
              << " acc=" << acc;
          EXPECT_EQ(
              std::memcmp(got_ref.data(), want_ref.data(), m * n * 4), 0)
              << "reference at=" << at << " bt=" << bt << " seg=" << seg
              << " acc=" << acc;
        }
      }
    }
  }
}

TEST(Im2col, ColumnsMatchDirectIndexing) {
  const std::size_t n_batch = 2;
  const std::size_t in_c = 3;
  const std::size_t length = 7;
  const std::size_t kernel = 5;
  const std::size_t pad = kernel / 2;
  Rng rng(23);
  const Tensor x = Tensor::randn({n_batch, in_c * length}, rng);
  Tensor cols;
  kernel::im2col_1d(x.data(), n_batch, in_c, length, kernel, cols);
  ASSERT_EQ(cols.rows(), in_c * kernel);
  ASSERT_EQ(cols.cols(), n_batch * length);
  for (std::size_t ic = 0; ic < in_c; ++ic) {
    for (std::size_t kk = 0; kk < kernel; ++kk) {
      for (std::size_t nb = 0; nb < n_batch; ++nb) {
        for (std::size_t t = 0; t < length; ++t) {
          const std::ptrdiff_t src = static_cast<std::ptrdiff_t>(t + kk) -
                                     static_cast<std::ptrdiff_t>(pad);
          float expect = 0.0F;
          if (src >= 0 && src < static_cast<std::ptrdiff_t>(length)) {
            expect = x.data()[nb * in_c * length + ic * length +
                              static_cast<std::size_t>(src)];
          }
          const float got =
              cols.data()[(ic * kernel + kk) * (n_batch * length) +
                          nb * length + t];
          ASSERT_EQ(got, expect) << "ic=" << ic << " k=" << kk << " n=" << nb
                                 << " t=" << t;
        }
      }
    }
  }
}

TEST(Im2col, Col2imIsAdjoint) {
  // <im2col(x), d> must equal <x, col2im(d)> — the defining property of
  // the backward scatter.
  const std::size_t n_batch = 3;
  const std::size_t in_c = 4;
  const std::size_t length = 9;
  for (std::size_t kernel : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    Rng rng(29);
    const Tensor x = Tensor::randn({n_batch, in_c * length}, rng);
    Tensor cols;
    kernel::im2col_1d(x.data(), n_batch, in_c, length, kernel, cols);
    const Tensor d = Tensor::randn({cols.rows(), cols.cols()}, rng);
    Tensor back({n_batch, in_c * length});
    back.fill(0.0F);
    kernel::col2im_1d(d, n_batch, in_c, length, kernel, back.data());
    double lhs = 0.0;
    for (std::size_t i = 0; i < cols.size(); ++i) {
      lhs += static_cast<double>(cols.data()[i]) * d.data()[i];
    }
    double rhs = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
      rhs += static_cast<double>(x.data()[i]) * back.data()[i];
    }
    ASSERT_NEAR(lhs, rhs, 1e-3) << "kernel=" << kernel;
  }
}

TEST(Conv1dEquivalence, ForwardMatchesReference) {
  for (std::size_t kernel : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    Rng rng_b(31);
    Rng rng_r(31);
    nn::Conv1d conv_b(3, 5, 11, kernel, rng_b);
    nn::Conv1d conv_r(3, 5, 11, kernel, rng_r);
    Rng xrng(37);
    const Tensor x = Tensor::randn({6, 3 * 11}, xrng);
    Tensor y_b;
    Tensor y_r;
    {
      const ScopedKernelBackend s(KernelBackend::kBlocked);
      conv_b.forward_into(x, y_b, true);
    }
    {
      const ScopedKernelBackend s(KernelBackend::kReference);
      conv_r.forward_into(x, y_r, true);
    }
    ASSERT_EQ(y_b.rows(), 6U);
    ASSERT_EQ(y_b.cols(), 5U * 11U);
    ASSERT_LE(max_abs_diff(y_b, y_r), kTol) << "kernel=" << kernel;
  }
}

TEST(Conv1dEquivalence, BackwardMatchesReference) {
  for (std::size_t kernel : {std::size_t{1}, std::size_t{3}, std::size_t{5}}) {
    Rng rng_b(41);
    Rng rng_r(41);
    nn::Conv1d conv_b(3, 5, 11, kernel, rng_b);
    nn::Conv1d conv_r(3, 5, 11, kernel, rng_r);
    Rng xrng(43);
    const Tensor x = Tensor::randn({6, 3 * 11}, xrng);
    const Tensor g = Tensor::randn({6, 5 * 11}, xrng);
    Tensor y;
    Tensor gi_b;
    Tensor gi_r;
    {
      const ScopedKernelBackend s(KernelBackend::kBlocked);
      conv_b.forward_into(x, y, true);
      conv_b.backward_into(g, gi_b);
    }
    {
      const ScopedKernelBackend s(KernelBackend::kReference);
      conv_r.forward_into(x, y, true);
      conv_r.backward_into(g, gi_r);
    }
    ASSERT_LE(max_abs_diff(gi_b, gi_r), kTol) << "kernel=" << kernel;
    const auto pb = conv_b.params();
    const auto pr = conv_r.params();
    ASSERT_EQ(pb.size(), pr.size());
    for (std::size_t i = 0; i < pb.size(); ++i) {
      ASSERT_LE(max_abs_diff(pb[i]->grad, pr[i]->grad), kTol)
          << "kernel=" << kernel << " param " << pb[i]->name;
    }
  }
}

}  // namespace
