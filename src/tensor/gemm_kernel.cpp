#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "task/scheduler.hpp"
#include "util/error.hpp"

namespace dshuf::kernel {

namespace {

/// ap: K x kMR micro-panel (k-major), bp: K x kNR micro-panel (k-major).
/// acc receives the kMR x kNR tile. The local array keeps the whole tile
/// in registers across the K loop; each acc element is one ascending-k
/// accumulator chain (the determinism contract in the header).
void micro_kernel(std::size_t k_dim, const float* ap, const float* bp,
                  float* acc) {
  float c[kMR][kNR] = {};
  for (std::size_t k = 0; k < k_dim; ++k) {
    const float* a = ap + k * kMR;
    const float* b = bp + k * kNR;
    for (std::size_t r = 0; r < kMR; ++r) {
      const float av = a[r];
      for (std::size_t j = 0; j < kNR; ++j) {
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
/// zero-padding the last panel's missing rows. When transposed, A is
/// stored K x M and a[k*m + i] is element (i, k).
void pack_a(const float* a, std::size_t m, std::size_t k_dim, std::size_t ic,
            std::size_t mb, bool transposed, float* dst) {
  for (std::size_t i0 = 0; i0 < mb; i0 += kMR) {
    const std::size_t iw = std::min(kMR, mb - i0);
    float* panel = dst + i0 * k_dim;
    if (transposed) {
      for (std::size_t k = 0; k < k_dim; ++k) {
        const float* src = a + k * m + ic + i0;
        float* out = panel + k * kMR;
        for (std::size_t r = 0; r < iw; ++r) out[r] = src[r];
        for (std::size_t r = iw; r < kMR; ++r) out[r] = 0.0F;
      }
    } else {
      for (std::size_t k = 0; k < k_dim; ++k) {
        float* out = panel + k * kMR;
        for (std::size_t r = 0; r < iw; ++r) {
          out[r] = a[(ic + i0 + r) * k_dim + k];
        }
        for (std::size_t r = iw; r < kMR; ++r) out[r] = 0.0F;
      }
    }
  }
}

/// Pack `nb` columns of B starting at column `jc` into k-major kNR
/// micro-panels, zero-padding the last panel's missing columns. When
/// transposed, B is stored N x K and b[j*k + k] is element (k, j).
void pack_b(const float* b, std::size_t n, std::size_t k_dim, std::size_t jc,
            std::size_t nb, bool transposed, float* dst) {
  for (std::size_t j0 = 0; j0 < nb; j0 += kNR) {
    const std::size_t jw = std::min(kNR, nb - j0);
    float* panel = dst + j0 * k_dim;
    if (transposed) {
      for (std::size_t k = 0; k < k_dim; ++k) {
        float* out = panel + k * kNR;
        for (std::size_t j = 0; j < jw; ++j) {
          out[j] = b[(jc + j0 + j) * k_dim + k];
        }
        for (std::size_t j = jw; j < kNR; ++j) out[j] = 0.0F;
      }
    } else {
      for (std::size_t k = 0; k < k_dim; ++k) {
        const float* src = b + k * n + jc + j0;
        float* out = panel + k * kNR;
        for (std::size_t j = 0; j < jw; ++j) out[j] = src[j];
        for (std::size_t j = jw; j < kNR; ++j) out[j] = 0.0F;
      }
    }
  }
}

/// Per-thread A-pack buffer. Shared by the serial path and every
/// parallel_for chunk (each executing thread packs its own A block), so
/// steady-state calls stay allocation-free on every worker.
thread_local std::vector<float> t_a_pack;

/// Work a contiguous range of M blocks [blk_begin, blk_end) of one
/// (jc, nb) N block: pack each A block locally, then run the micro-kernel
/// grid against the caller-packed B panel `bp`. Chunks own disjoint C
/// rows, so this is the unit parallel_for fans out.
void run_m_blocks(const float* a, const float* bp, float* c, std::size_t m,
                  std::size_t n, std::size_t k, std::size_t k_seg,
                  bool a_transposed, bool accumulate, std::size_t jc,
                  std::size_t nb, std::size_t mc_eff, std::size_t blk_begin,
                  std::size_t blk_end) {
  std::vector<float>& a_pack = t_a_pack;
  alignas(64) float acc[kMR * kNR];
  for (std::size_t blk = blk_begin; blk < blk_end; ++blk) {
    const std::size_t ic = blk * mc_eff;
    const std::size_t mb = std::min(mc_eff, m - ic);
    a_pack.resize(k * round_up(mb, kMR));
    pack_a(a, m, k, ic, mb, a_transposed, a_pack.data());

    for (std::size_t j0 = 0; j0 < nb; j0 += kNR) {
      const std::size_t jw = std::min(kNR, nb - j0);
      for (std::size_t i0 = 0; i0 < mb; i0 += kMR) {
        const std::size_t iw = std::min(kMR, mb - i0);
        // One chain per K segment, each merged into C in segment order.
        // Packed panels are k-major, so a segment is a contiguous slice.
        for (std::size_t k0 = 0; k0 < k; k0 += k_seg) {
          const std::size_t kw = std::min(k_seg, k - k0);
          micro_kernel(kw, a_pack.data() + i0 * k + k0 * kMR,
                       bp + j0 * k + k0 * kNR, acc);
          // Merge the tile, dropping zero-padded edge lanes.
          for (std::size_t r = 0; r < iw; ++r) {
            float* crow = c + (ic + i0 + r) * n + jc + j0;
            const float* arow = acc + r * kNR;
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

}  // namespace

void gemm_blocked(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t n, std::size_t k, bool a_transposed,
                  bool b_transposed, bool accumulate,
                  const BlockConfig& cfg, std::size_t k_segment) {
  DSHUF_CHECK_GT(cfg.mc, 0U, "block config mc must be positive");
  DSHUF_CHECK_GT(cfg.nc, 0U, "block config nc must be positive");
  if (m == 0 || n == 0) return;
  if (k == 0) {
    if (!accumulate) std::memset(c, 0, m * n * sizeof(float));
    return;
  }

  // B-pack buffer persists across calls (allocation-free steady state);
  // it belongs to the calling thread and is shared read-only with chunks.
  static thread_local std::vector<float> b_pack;

  // Fan out only when the scheduler exists and the problem amortises the
  // submit/steal overhead (the threshold is shape-only so the decision —
  // though not the result, which is schedule-independent — is
  // deterministic). ~2 MFLOP ≈ a 100x100x100 GEMM.
  task::Scheduler* const sched = task::global_scheduler();
  const bool parallel = sched != nullptr && m > kMR && m * n * k >= (1U << 20);

  // Smaller M blocks for the parallel path so there are ~2 chunks per
  // worker to steal. Any mc gives bit-identical results (header
  // contract), so this only changes the work granularity.
  std::size_t mc_eff = cfg.mc;
  if (parallel) {
    const std::size_t workers = sched->workers();
    const std::size_t target = (m + 2 * workers - 1) / (2 * workers);
    mc_eff = std::clamp(round_up(target, kMR), kMR, cfg.mc);
  }
  const std::size_t m_blocks = (m + mc_eff - 1) / mc_eff;
  const std::size_t k_seg = k_segment == 0 ? k : std::min(k_segment, k);

  for (std::size_t jc = 0; jc < n; jc += cfg.nc) {
    const std::size_t nb = std::min(cfg.nc, n - jc);
    b_pack.resize(k * round_up(nb, kNR));
    pack_b(b, n, k, jc, nb, b_transposed, b_pack.data());
    const float* const bp = b_pack.data();

    const auto body = [&](std::size_t blk_begin, std::size_t blk_end) {
      run_m_blocks(a, bp, c, m, n, k, k_seg, a_transposed, accumulate, jc,
                   nb, mc_eff, blk_begin, blk_end);
    };
    if (parallel && m_blocks > 1) {
      sched->parallel_for(0, m_blocks, 1, body);
    } else {
      body(0, m_blocks);
    }
  }
}

}  // namespace dshuf::kernel
