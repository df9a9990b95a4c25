// kernel::gemm_blocked reads A and full B panels in place and keeps its
// output tile in registers. This suite keeps the kernel it replaced —
// both operands packed into k-major micro-panels, each tile copied out of
// registers into an accumulator array and merged into C from there — as
// an oracle, and sweeps the two against each other over shapes, transpose
// modes, accumulate, K segments, block configurations and concurrent
// callers, on inputs salted with ±0, denormals, ±inf and NaN.
//
// Every output that is not NaN must be bit-equal to the oracle's, and
// every NaN output must be NaN in both: which of two NaN operands an FMA
// propagates depends on its operand order, which the compiler picks, so
// NaN payloads are not part of the contract (DESIGN.md §6).
//
// This file is compiled with the same -march flags as src/tensor, so the
// oracle contracts multiply-adds into FMA exactly where the library does.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "tensor/gemm_kernel.hpp"
#include "util/rng.hpp"

namespace dshuf::kernel {
namespace {

// --- The packed kernel gemm_blocked used to be (serial path) -------------

constexpr std::size_t kOracleMR = 8;
constexpr std::size_t kOracleNR = 32;

/// ap: K x kMR micro-panel (k-major), bp: K x kNR micro-panel (k-major).
/// acc receives the kMR x kNR tile; each element is one ascending-k chain.
void micro_kernel(std::size_t k_dim, const float* ap, const float* bp,
                  float* acc) {
  float c[kOracleMR][kOracleNR] = {};
  for (std::size_t k = 0; k < k_dim; ++k) {
    const float* a = ap + k * kOracleMR;
    const float* b = bp + k * kOracleNR;
    for (std::size_t r = 0; r < kOracleMR; ++r) {
      const float av = a[r];
      for (std::size_t j = 0; j < kOracleNR; ++j) {
        c[r][j] += av * b[j];
      }
    }
  }
  std::memcpy(acc, c, sizeof(c));
}

std::size_t round_up(std::size_t v, std::size_t to) {
  return (v + to - 1) / to * to;
}

/// Pack `mb` rows of A starting at row `ic` into k-major kMR micro-panels,
/// zero-padding the last panel's missing rows.
void pack_a(const float* a, std::size_t m, std::size_t k_dim, std::size_t ic,
            std::size_t mb, bool transposed, float* dst) {
  for (std::size_t i0 = 0; i0 < mb; i0 += kOracleMR) {
    const std::size_t iw = std::min(kOracleMR, mb - i0);
    float* panel = dst + i0 * k_dim;
    for (std::size_t k = 0; k < k_dim; ++k) {
      float* out = panel + k * kOracleMR;
      for (std::size_t r = 0; r < iw; ++r) {
        out[r] = transposed ? a[k * m + ic + i0 + r]
                            : a[(ic + i0 + r) * k_dim + k];
      }
      for (std::size_t r = iw; r < kOracleMR; ++r) out[r] = 0.0F;
    }
  }
}

/// Pack `nb` columns of B starting at column `jc` into k-major kNR
/// micro-panels, zero-padding the last panel's missing columns.
void pack_b(const float* b, std::size_t n, std::size_t k_dim, std::size_t jc,
            std::size_t nb, bool transposed, float* dst) {
  for (std::size_t j0 = 0; j0 < nb; j0 += kOracleNR) {
    const std::size_t jw = std::min(kOracleNR, nb - j0);
    float* panel = dst + j0 * k_dim;
    for (std::size_t k = 0; k < k_dim; ++k) {
      float* out = panel + k * kOracleNR;
      for (std::size_t j = 0; j < jw; ++j) {
        out[j] = transposed ? b[(jc + j0 + j) * k_dim + k]
                            : b[k * n + jc + j0 + j];
      }
      for (std::size_t j = jw; j < kOracleNR; ++j) out[j] = 0.0F;
    }
  }
}

/// All M blocks of one (jc, nb) N block against the packed B panel `bp`.
void run_m_blocks(const float* a, const float* bp, float* c, std::size_t m,
                  std::size_t n, std::size_t k, std::size_t k_seg,
                  bool a_transposed, bool accumulate, std::size_t jc,
                  std::size_t nb, std::size_t mc) {
  std::vector<float> a_pack;
  alignas(64) float acc[kOracleMR * kOracleNR];
  for (std::size_t ic = 0; ic < m; ic += mc) {
    const std::size_t mb = std::min(mc, m - ic);
    a_pack.resize(k * round_up(mb, kOracleMR));
    pack_a(a, m, k, ic, mb, a_transposed, a_pack.data());
    for (std::size_t j0 = 0; j0 < nb; j0 += kOracleNR) {
      const std::size_t jw = std::min(kOracleNR, nb - j0);
      for (std::size_t i0 = 0; i0 < mb; i0 += kOracleMR) {
        const std::size_t iw = std::min(kOracleMR, mb - i0);
        for (std::size_t k0 = 0; k0 < k; k0 += k_seg) {
          const std::size_t kw = std::min(k_seg, k - k0);
          micro_kernel(kw, a_pack.data() + i0 * k + k0 * kOracleMR,
                       bp + j0 * k + k0 * kOracleNR, acc);
          for (std::size_t r = 0; r < iw; ++r) {
            float* crow = c + (ic + i0 + r) * n + jc + j0;
            const float* arow = acc + r * kOracleNR;
            if (accumulate || k0 > 0) {
              for (std::size_t j = 0; j < jw; ++j) crow[j] += arow[j];
            } else {
              for (std::size_t j = 0; j < jw; ++j) crow[j] = arow[j];
            }
          }
        }
      }
    }
  }
}

void oracle_gemm(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t n, std::size_t k, bool a_transposed,
                 bool b_transposed, bool accumulate, std::size_t k_segment) {
  if (k == 0) {
    if (!accumulate) std::fill(c, c + m * n, 0.0F);
    return;
  }
  const BlockConfig cfg;
  const std::size_t k_seg = k_segment == 0 ? k : std::min(k_segment, k);
  std::vector<float> b_pack;
  for (std::size_t jc = 0; jc < n; jc += cfg.nc) {
    const std::size_t nb = std::min(cfg.nc, n - jc);
    b_pack.resize(k * round_up(nb, kOracleNR));
    pack_b(b, n, k, jc, nb, b_transposed, b_pack.data());
    run_m_blocks(a, b_pack.data(), c, m, n, k, k_seg, a_transposed,
                 accumulate, jc, nb, cfg.mc);
  }
}

// --- The sweep -----------------------------------------------------------

/// Mostly unit normals; one value in 16 is ±0, and one in 2048 each is a
/// denormal, NaN, +inf or -inf: rare enough that most 128-long chains stay
/// finite, and that few vector FMAs take the slow denormal path.
std::vector<float> salted(std::size_t count, Rng& rng) {
  constexpr float kInf = std::numeric_limits<float>::infinity();
  constexpr float kNaN = std::numeric_limits<float>::quiet_NaN();
  std::vector<float> v(count);
  for (float& x : v) {
    const std::uint64_t pick = rng.uniform_u64(2048);
    if (pick < 128) {
      x = pick % 2 == 0 ? 0.0F : -0.0F;
    } else if (pick == 128) {
      x = static_cast<float>(rng.normal()) * 1e-39F;
    } else if (pick == 129) {
      x = kNaN;
    } else if (pick == 130) {
      x = kInf;
    } else if (pick == 131) {
      x = -kInf;
    } else {
      x = static_cast<float>(rng.normal());
    }
  }
  return v;
}

/// Kernel output vs oracle output: equal bits, or NaN in both.
bool same(float got, float want) {
  if (std::isnan(want) || std::isnan(got)) {
    return std::isnan(want) && std::isnan(got);
  }
  std::uint32_t g = 0;
  std::uint32_t w = 0;
  std::memcpy(&g, &got, sizeof(g));
  std::memcpy(&w, &want, sizeof(w));
  return g == w;
}

struct SweepStats {
  std::size_t calls = 0;
  std::size_t nan_outputs = 0;
  std::size_t finite_outputs = 0;
};

std::vector<std::size_t> small_and_edge_sizes() {
  std::vector<std::size_t> s;
  for (std::size_t i = 1; i <= 40; ++i) s.push_back(i);
  for (std::size_t i : {63, 64, 65, 96, 128}) s.push_back(i);
  return s;
}

constexpr std::size_t kKs[] = {1, 2, 7, 8, 9, 33, 128};
constexpr std::size_t kSegments[] = {0, 1, 3, 8};
constexpr std::size_t kGuard = 37;  // floats past C that must stay untouched

/// Runs gemm_blocked under every config in `configs` against the oracle
/// for every shape in ms x ns x kKs and every transpose mode in `modes`
/// (bit 0: A^T, bit 1: B^T); stops at the first mismatch.
SweepStats sweep(const std::vector<std::size_t>& ms,
                 const std::vector<std::size_t>& ns,
                 const std::vector<int>& modes,
                 const std::vector<BlockConfig>& configs, std::uint64_t seed) {
  SweepStats st;
  Rng rng(seed);
  const std::size_t max_m = *std::max_element(ms.begin(), ms.end());
  const std::size_t max_n = *std::max_element(ns.begin(), ns.end());
  const std::size_t max_k = *std::max_element(std::begin(kKs), std::end(kKs));
  // One pool of salted values; each shape reads a window of it at a random
  // offset, so inputs differ between shapes without refilling.
  const std::vector<float> pool =
      salted(4 * max_k * std::max(max_m, max_n), rng);
  auto window = [&](std::size_t count) {
    return pool.data() + rng.uniform_u64(pool.size() - count + 1);
  };
  std::vector<float> want;
  std::vector<float> got;
  for (std::size_t m : ms) {
    for (std::size_t n : ns) {
      for (std::size_t k : kKs) {
        for (int mode : modes) {
          const bool at = (mode & 1) != 0;
          const bool bt = (mode & 2) != 0;
          const float* a = window(m * k);
          const float* b = window(k * n);
          const float* c0 = window(m * n);
          for (bool acc : {false, true}) {
            for (std::size_t seg : kSegments) {
              if (seg >= k) continue;  // the same call as k_segment = 0
              want.assign(c0, c0 + m * n);
              oracle_gemm(a, b, want.data(), m, n, k, at, bt, acc, seg);
              for (const BlockConfig& cfg : configs) {
                got.assign(c0, c0 + m * n);
                got.resize(m * n + kGuard, 7.0F);
                gemm_blocked(a, b, got.data(), m, n, k, at, bt, acc, cfg, seg);
                ++st.calls;
                for (std::size_t i = 0; i < m * n; ++i) {
                  if (!same(got[i], want[i])) {
                    ADD_FAILURE()
                        << "m=" << m << " n=" << n << " k=" << k
                        << " at=" << at << " bt=" << bt << " acc=" << acc
                        << " k_segment=" << seg << " mc=" << cfg.mc
                        << " nc=" << cfg.nc << ": C[" << i / n << "][" << i % n
                        << "] = " << got[i] << ", oracle " << want[i];
                    return st;
                  }
                  ++(std::isnan(want[i]) ? st.nan_outputs : st.finite_outputs);
                }
                for (std::size_t i = m * n; i < got.size(); ++i) {
                  if (got[i] != 7.0F) {
                    ADD_FAILURE() << "m=" << m << " n=" << n << " k=" << k
                                  << ": wrote past C";
                    return st;
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return st;
}

/// One transpose mode per test, so ctest can run the four in parallel.
class GemmOracleSweep : public ::testing::TestWithParam<int> {};

TEST_P(GemmOracleSweep, BitEqualOverShapesSegmentsAndBlockConfigs) {
  // The default blocks, and blocks whose M edge splits a register tile
  // (mc = 20) and whose N blocks end in a partial panel (nc = 56).
  const std::vector<std::size_t> sizes = small_and_edge_sizes();
  const SweepStats st =
      sweep(sizes, sizes, {GetParam()}, {BlockConfig{}, BlockConfig{20, 56}},
            /*seed=*/0x6E11 + static_cast<std::uint64_t>(GetParam()));
  // The salting reaches both kinds of output, most of them finite.
  EXPECT_GT(st.nan_outputs, 0U);
  EXPECT_GT(st.finite_outputs, 4 * st.nan_outputs);
  std::printf("%zu calls, %zu finite and %zu NaN outputs\n", st.calls,
              st.finite_outputs, st.nan_outputs);
}

INSTANTIATE_TEST_SUITE_P(TransposeModes, GemmOracleSweep,
                         ::testing::Values(0, 1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& mode) {
                           return std::string(mode.param & 1 ? "At" : "A") +
                                  (mode.param & 2 ? "Bt" : "B");
                         });

// The packed B panels are thread_local, and data-parallel rank threads
// call the kernel at once: four threads, one transpose mode each, sweep
// shapes from a single tile to 128 on every side at the same time.
TEST(GemmOracle, BitEqualFromFourConcurrentThreads) {
  const std::vector<std::size_t> sizes = {1, 8, 9, 40, 63, 64, 65, 96, 128};
  std::vector<SweepStats> stats(4);
  std::vector<std::thread> threads;
  for (int mode = 0; mode < 4; ++mode) {
    threads.emplace_back([&stats, &sizes, mode] {
      stats[static_cast<std::size_t>(mode)] =
          sweep(sizes, sizes, {mode}, {BlockConfig{}},
                /*seed=*/0x6E12 + static_cast<std::uint64_t>(mode));
    });
  }
  for (auto& t : threads) t.join();
  std::size_t nan_outputs = 0;
  for (const SweepStats& st : stats) nan_outputs += st.nan_outputs;
  EXPECT_GT(nan_outputs, 0U);
}

}  // namespace
}  // namespace dshuf::kernel
