// Packed, cache-blocked, register-tiled single-core GEMM.
//
// One micro-kernel computes a kMR x kNR output tile as a rank-1-update
// sum over the full K dimension, with all kMR*kNR accumulators held in
// registers (auto-vectorized; compiled with -march=native when
// DSHUF_NATIVE_ARCH is on). A and B operands are packed into k-major
// micro-panels first so the micro-kernel streams both with unit stride.
//
// Determinism contract: every output element is produced by a single
// accumulator chain over k = 0..K-1 in ascending order (one chain per K
// segment when the caller asks for segments), with zero-padded edge lanes
// never stored — so results are bit-identical across runs AND
// independent of the cache-block configuration (mc, nc). There is
// deliberately no K-blocking: carrying partial sums through C between K
// panels would make the rounding order depend on the block size.
// tests/test_kernels.cpp asserts both properties.
//
// Multicore: when the global task scheduler is active and the problem is
// large enough, the M-block loop inside each N block fans out as
// parallel_for chunks. Each chunk owns disjoint C rows and packs its own
// A block; B is packed once by the caller and shared read-only. Because
// the per-element accumulator chain is untouched (only WHICH thread runs
// a given M block changes, never the arithmetic within it), multicore
// results are bit-identical to the single-core ones for any worker count
// — tests/test_task_determinism.cpp asserts this. Task bodies submitted
// to the scheduler must not themselves call gemm_blocked: the shared
// packed-B panel is thread_local to the caller, and a nested call from a
// helping thread would resize it mid-use.
//
// Pack buffers are thread_local and keep their capacity, so steady-state
// calls are allocation-free.
#pragma once

#include <cstddef>

namespace dshuf::kernel {

/// Rows / cols of the register micro-tile. kMR*kNR accumulators must fit
/// the vector register file (8x32 floats = 16 AVX-512 zmm registers).
inline constexpr std::size_t kMR = 8;
inline constexpr std::size_t kNR = 32;

/// Cache-block sizes (rows of A / cols of B packed per panel). Any
/// positive values give bit-identical results; these default to panels
/// that keep the packed A block plus a B micro-panel L2-resident for the
/// K range this workload sees (K <= ~4096).
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
