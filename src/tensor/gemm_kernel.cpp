#include "tensor/gemm_kernel.hpp"

#include <algorithm>
#include <cstring>
#include <vector>

#include "util/error.hpp"

namespace dshuf::kernel {

namespace {

/// Sixteen floats. Arithmetic on it contracts to FMA exactly where the
/// same scalar expression would (with -march=native on an FMA host).
using Vec = float __attribute__((vector_size(64)));
constexpr std::size_t kLanes = sizeof(Vec) / sizeof(float);
constexpr std::size_t kVecs = kNR / kLanes;
static_assert(kNR % kLanes == 0, "a tile row is whole vectors");

/// One GEMM call's operands. A row i, step k, is a[i * a_row + k * a_step].
struct Operands {
  const float* a;
  std::size_t a_row;
  std::size_t a_step;
  const float* b;   // B as stored, read in place for full panels
  const float* bp;  // packed panels, the first at column bp_from
  std::size_t bp_from;
  float* c;
  std::size_t m, n, k, k_seg;
  bool b_transposed, accumulate;
};

/// Tile at (i0, j0): rows [i0, i0 + iw), cols [j0, j0 + jw) of C, over
/// k in [k0, k0 + kw). Each element is one ascending chain from zero
/// (the determinism contract in the header), stored into C or added to
/// it. A rows past the tile's edge repeat its last row, B columns past
/// the edge are zero padding; neither is stored.
void tile(const Operands& p, std::size_t i0, std::size_t iw, std::size_t j0,
          std::size_t jw, const float* bk, std::size_t ldb, std::size_t k0,
          std::size_t kw, bool add) {
  const float* rows[kMR];
  for (std::size_t r = 0; r < kMR; ++r) {
    rows[r] = p.a + (i0 + std::min(r, iw - 1)) * p.a_row + k0 * p.a_step;
  }
  // Every loop over the tile unrolls fully, so acc is indexed by constants
  // only and stays in registers.
  Vec acc[kMR][kVecs] = {};
  for (std::size_t kk = 0, off = 0; kk < kw; ++kk, off += p.a_step) {
    Vec bv[kVecs];
    for (std::size_t v = 0; v < kVecs; ++v) {
      std::memcpy(&bv[v], bk + kk * ldb + v * kLanes, sizeof(Vec));
    }
    for (std::size_t r = 0; r < kMR; ++r) {
      const float av = rows[r][off];
      for (std::size_t v = 0; v < kVecs; ++v) acc[r][v] += av * bv[v];
    }
  }
#pragma GCC unroll 8
  for (std::size_t r = 0; r < kMR; ++r) {
    if (r == iw) break;
    float* crow = p.c + (i0 + r) * p.n + j0;
    float t[kNR];
    for (std::size_t v = 0; v < kVecs; ++v) {
      Vec out = acc[r][v];
      if (jw < kNR) {  // partial panel: merged column by column below
        std::memcpy(t + v * kLanes, &out, sizeof(out));
        continue;
      }
      if (add) {
        Vec old;
        std::memcpy(&old, crow + v * kLanes, sizeof(old));
        out = old + out;
      }
      std::memcpy(crow + v * kLanes, &out, sizeof(out));
    }
    for (std::size_t j = 0; jw < kNR && j < jw; ++j) {
      crow[j] = add ? crow[j] + t[j] : t[j];
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
    for (std::size_t k = 0; k < k_dim; ++k) {
      float* out = panel + k * kNR;
      if (!transposed) std::memcpy(out, b + k * n + jc + j0, jw * sizeof(*out));
      for (std::size_t j = 0; transposed && j < jw; ++j) {
        out[j] = b[(jc + j0 + j) * k_dim + k];
      }
      std::fill(out + jw, out + kNR, 0.0F);
    }
  }
}

/// Work every M block of the N block [jc, jc + nb).
void run_m_blocks(const Operands& p, std::size_t jc, std::size_t nb,
                  std::size_t mc) {
  for (std::size_t ic = 0; ic < p.m; ic += mc) {
    const std::size_t mb = std::min(mc, p.m - ic);
    for (std::size_t j0 = jc; j0 < jc + nb; j0 += kNR) {
      const std::size_t jw = std::min(kNR, jc + nb - j0);
      const bool in_place = !p.b_transposed && jw == kNR;
      const float* bpanel = in_place ? p.b + j0 : p.bp + (j0 - p.bp_from) * p.k;
      const std::size_t ldb = in_place ? p.n : kNR;
      for (std::size_t i0 = ic; i0 < ic + mb; i0 += kMR) {
        const std::size_t iw = std::min(kMR, ic + mb - i0);
        // One chain per K segment, each merged into C in segment order.
        for (std::size_t k0 = 0; k0 < p.k; k0 += p.k_seg) {
          tile(p, i0, iw, j0, jw, bpanel + k0 * ldb, ldb, k0,
               std::min(p.k_seg, p.k - k0), p.accumulate || k0 > 0);
        }
      }
    }
  }
}

std::size_t round_up(std::size_t v, std::size_t to) {
  return (v + to - 1) / to * to;
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

  // Packed B panels persist across calls (allocation-free steady state).
  // They belong to the calling thread: rank threads call GEMM concurrently.
  static thread_local std::vector<float> b_pack;

  Operands p{.a = a, .a_row = a_transposed ? 1 : k,
             .a_step = a_transposed ? m : 1, .b = b, .bp = nullptr,
             .bp_from = 0, .c = c, .m = m, .n = n, .k = k,
             .k_seg = k_segment == 0 ? k : std::min(k_segment, k),
             .b_transposed = b_transposed, .accumulate = accumulate};
  for (std::size_t jc = 0; jc < n; jc += cfg.nc) {
    const std::size_t nb = std::min(cfg.nc, n - jc);
    // Pack what cannot be read in place: all of B^T, else the partial
    // last panel.
    p.bp_from = jc + (b_transposed ? 0 : nb / kNR * kNR);
    const std::size_t packed = jc + nb - p.bp_from;
    b_pack.resize(k * round_up(packed, kNR));
    pack_b(b, n, k, p.bp_from, packed, b_transposed, b_pack.data());
    p.bp = b_pack.data();
    run_m_blocks(p, jc, nb, cfg.mc);
  }
}

}  // namespace dshuf::kernel
