// Cache-blocked, register-tiled single-core GEMM that reads its operands
// in place.
//
// One micro-kernel computes a kMR x kNR output tile as a rank-1-update
// sum over a K range. The tile is 16 explicit 16-lane vectors (GCC
// vector_size(64): one zmm each with AVX-512, a ymm pair with AVX2, an
// xmm quad with SSE2), so with -march=native on an AVX-512 host it lives
// in 16 of the 32 zmm registers for the whole K loop. The kernel only
// broadcasts A elements, so A is never packed: it reads kMR rows in place
// through row pointers with a k stride (1 for A, M for A^T), and edge
// tiles repeat the last valid row. B is read in place when it is not
// transposed and its kNR-column panel is full; B^T and a partial last
// panel are packed into zero-padded k-major panels. Full-width tile rows
// are stored or added into C straight from registers.
//
// Determinism contract: every output element is produced by a single
// accumulator chain over k = 0..K-1 in ascending order, started from zero
// (one chain per K segment when the caller asks for segments, each added
// into C in segment order), and padded or repeated edge lanes are never
// stored — so results are bit-identical across runs AND independent of
// the cache-block configuration (mc, nc). There is deliberately no
// K-blocking: carrying partial sums through C between K panels would make
// the rounding order depend on the block size. tests/test_kernels.cpp
// asserts both properties; tests/test_gemm_oracle.cpp holds the kernel
// bit for bit to the packed kernel it replaced.
//
// The packed-B buffer is thread_local, so rank threads may call GEMM
// concurrently, and it keeps its capacity, so steady-state calls are
// allocation-free.
#pragma once

#include <cstddef>

namespace dshuf::kernel {

/// Rows / cols of the register micro-tile: 8 rows of two 16-float
/// vectors.
inline constexpr std::size_t kMR = 8;
inline constexpr std::size_t kNR = 32;

/// Cache-block sizes: rows of C per M block and columns of B per N
/// block. Any positive values give
/// bit-identical results; the defaults keep an M block's rows of A plus a
/// B panel cache-resident for the K range this workload sees.
struct BlockConfig {
  std::size_t mc = 64;
  std::size_t nc = 512;
};

/// c(MxN) = a * b (+ c when accumulate).
///
/// a_transposed: a is stored K x M and used as its transpose (the
/// gemm_at_b weight-gradient case). b_transposed: b is stored N x K and
/// used as its transpose (the gemm_a_bt input-gradient case). Plain
/// row-major storage otherwise. Pointers must not alias.
///
/// k_segment > 0 splits K into consecutive segments of that length (the
/// last may be shorter): each output element gets one ascending chain per
/// segment, added into c in segment order — bit for bit what one
/// accumulate call per segment would give, without copying the segments
/// out. This is how a weight gradient over a stack of per-worker batches
/// keeps each worker's sum separate. 0 means one segment.
void gemm_blocked(const float* a, const float* b, float* c, std::size_t m,
                  std::size_t n, std::size_t k, bool a_transposed,
                  bool b_transposed, bool accumulate,
                  const BlockConfig& cfg = {}, std::size_t k_segment = 0);

}  // namespace dshuf::kernel
